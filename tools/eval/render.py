#!/usr/bin/env python3
"""Render BENCH JSON into the committed docs/eval/ figures.

Consumes the per-bench JSON written by `run_eval.py` (one
`<bench>.memory.json` per figure, the harness/bench_json.h schema:
{"bench", "params", "tables": [{"name", "columns", "rows"}]}) and emits,
for every figure in FIGURES:

  docs/eval/<bench>.md         parameters + markdown tables
  docs/eval/<bench>[.chart].svg  hand-rolled deterministic SVG plots

Only stdlib is used (the container has no matplotlib) and the output is
byte-deterministic: timing columns (seconds / *_ms / p50 / p99 / speedup,
the rule tools/bench_compare.py's is_timing applies) are dropped before
rendering, floats are formatted with fixed precision, and nothing depends
on dict order, clocks or randomness.  Re-running the eval at the
committed sizes therefore regenerates docs/eval/ byte-identically — that is
what CI's eval-smoke job checks.
"""

import json
import math
import os
import sys

# The one rule for which keys are timings lives in the CI gate (tools/).
sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
from bench_compare import is_timing  # noqa: E402

# ----------------------------------------------------------------------------
# Palette (light mode, validated): categorical hues are assigned to the
# paper's variants in fixed order and never cycled; text wears ink tokens,
# never the series color.

VARIANT_COLORS = {
    "PR": "#2a78d6",   # blue — the protagonist
    "H": "#eb6834",    # orange
    "H4": "#1baf7a",   # aqua-green
    "TGS": "#eda100",  # yellow
    "STR": "#e87ba4",  # magenta
}
FALLBACK_COLORS = ["#2a78d6", "#eb6834", "#1baf7a", "#eda100", "#e87ba4"]

SURFACE = "#fcfcfb"
INK = "#0b0b0b"
INK_SECONDARY = "#52514e"
INK_MUTED = "#898781"
GRID = "#e1e0d9"
AXIS = "#c3c2b7"
FONT = "font-family=\"system-ui,-apple-system,sans-serif\""


def series_color(name, idx):
    key = name.split("_")[0].upper()
    return VARIANT_COLORS.get(key, FALLBACK_COLORS[idx % len(FALLBACK_COLORS)])


def series_label(name):
    """"PR_pct_of_optimal" -> "PR", "pr_io" -> "PR", else the raw name."""
    key = name.split("_")[0].upper()
    if key in VARIANT_COLORS:
        return key
    return name


def fmt_num(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        if v == int(v) and abs(v) < 1e15:
            return str(int(v))
        return f"{v:.4g}"
    return str(v)


def fmt_tick(v):
    """Axis tick label: compact, deterministic."""
    a = abs(v)
    if a >= 1e6 and v == int(v):
        return fmt_num(v / 1e6) + "M"
    if a >= 1e4 and v == int(v):
        return fmt_num(v / 1e3) + "k"
    return fmt_num(round(v, 6))


# ----------------------------------------------------------------------------
# SVG primitives.  Coordinates are rounded to 2 decimals so output bytes do
# not depend on platform float printing quirks.


def _c(x):
    s = f"{x:.2f}"
    return s[:-3] if s.endswith(".00") else s


def nice_ticks(lo, hi, target=5):
    if hi <= lo:
        hi = lo + 1
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / target))
    for mult in (1, 2, 2.5, 5, 10):
        if span / (step * mult) <= target:
            step *= mult
            break
    # Cover the full data range: the scale's domain is [min(ticks),
    # max(ticks)], so a max tick below `hi` would push points off the plot.
    start = math.floor(lo / step) * step
    end = math.ceil(hi / step - 1e-9) * step
    ticks = []
    i = 0
    while start + i * step <= end + step * 1e-9:
        ticks.append(round(start + i * step, 10))
        i += 1
    return ticks


def log_ticks(lo, hi):
    ticks = []
    d = math.floor(math.log10(lo))
    while 10 ** d <= hi * (1 + 1e-9):
        if 10 ** d >= lo * (1 - 1e-9):
            ticks.append(10 ** d)
        d += 1
    return ticks


class Svg:
    W, H = 640, 360
    ML, MR, MT, MB = 72, 16, 34, 48

    def __init__(self, title):
        self.parts = [
            f"<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{self.W}\" "
            f"height=\"{self.H}\" viewBox=\"0 0 {self.W} {self.H}\">",
            f"<rect width=\"{self.W}\" height=\"{self.H}\" fill=\"{SURFACE}\"/>",
            f"<text x=\"{self.ML}\" y=\"20\" {FONT} font-size=\"14\" "
            f"font-weight=\"600\" fill=\"{INK}\">{esc(title)}</text>",
        ]

    def plot_rect(self):
        return (self.ML, self.MT, self.W - self.MR, self.H - self.MB)

    def add(self, s):
        self.parts.append(s)

    def finish(self):
        self.parts.append("</svg>")
        return "\n".join(self.parts) + "\n"


def esc(s):
    return (str(s).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


class Scale:
    def __init__(self, lo, hi, out_lo, out_hi, log=False):
        self.log = log and lo > 0
        self.lo, self.hi = (math.log10(lo), math.log10(hi)) if self.log \
            else (lo, hi)
        if self.hi <= self.lo:
            self.hi = self.lo + 1
        self.out_lo, self.out_hi = out_lo, out_hi

    def __call__(self, v):
        x = math.log10(v) if self.log else v
        f = (x - self.lo) / (self.hi - self.lo)
        return self.out_lo + f * (self.out_hi - self.out_lo)


def draw_axes(svg, sx, sy, xticks, yticks, xlabel, ylabel):
    x0, y0, x1, y1 = svg.plot_rect()
    for t in yticks:
        y = sy(t)
        svg.add(f"<line x1=\"{_c(x0)}\" y1=\"{_c(y)}\" x2=\"{_c(x1)}\" "
                f"y2=\"{_c(y)}\" stroke=\"{GRID}\" stroke-width=\"1\"/>")
        svg.add(f"<text x=\"{_c(x0 - 6)}\" y=\"{_c(y + 3.5)}\" {FONT} "
                f"font-size=\"11\" text-anchor=\"end\" "
                f"fill=\"{INK_MUTED}\">{fmt_tick(t)}</text>")
    svg.add(f"<line x1=\"{_c(x0)}\" y1=\"{_c(y1)}\" x2=\"{_c(x1)}\" "
            f"y2=\"{_c(y1)}\" stroke=\"{AXIS}\" stroke-width=\"1\"/>")
    for t in xticks:
        x = sx(t)
        svg.add(f"<line x1=\"{_c(x)}\" y1=\"{_c(y1)}\" x2=\"{_c(x)}\" "
                f"y2=\"{_c(y1 + 4)}\" stroke=\"{AXIS}\" stroke-width=\"1\"/>")
        svg.add(f"<text x=\"{_c(x)}\" y=\"{_c(y1 + 17)}\" {FONT} "
                f"font-size=\"11\" text-anchor=\"middle\" "
                f"fill=\"{INK_MUTED}\">{fmt_tick(t)}</text>")
    svg.add(f"<text x=\"{_c((x0 + x1) / 2)}\" y=\"{svg.H - 10}\" {FONT} "
            f"font-size=\"12\" text-anchor=\"middle\" "
            f"fill=\"{INK_SECONDARY}\">{esc(xlabel)}</text>")
    svg.add(f"<text x=\"14\" y=\"{_c((y0 + y1) / 2)}\" {FONT} "
            f"font-size=\"12\" text-anchor=\"middle\" "
            f"fill=\"{INK_SECONDARY}\" transform=\"rotate(-90 14 "
            f"{_c((y0 + y1) / 2)})\">{esc(ylabel)}</text>")


def draw_legend(svg, names_colors):
    if len(names_colors) < 2:
        return  # a single series is named by the title
    x = svg.plot_rect()[2]
    x -= sum(18 + 8 * len(n) + 14 for n, _ in names_colors)
    y = 20
    for name, color in names_colors:
        svg.add(f"<rect x=\"{_c(x)}\" y=\"{y - 9}\" width=\"12\" "
                f"height=\"12\" rx=\"2\" fill=\"{color}\"/>")
        svg.add(f"<text x=\"{_c(x + 18)}\" y=\"{y + 1}\" {FONT} "
                f"font-size=\"12\" fill=\"{INK_SECONDARY}\">{esc(name)}"
                f"</text>")
        x += 18 + 8 * len(name) + 14


def line_chart(title, xlabel, ylabel, xs, series, logx=False, logy=False):
    """series: list of (name, [y...]) aligned with xs."""
    svg = Svg(title)
    x0, y0, x1, y1 = svg.plot_rect()
    ys = [v for _, vals in series for v in vals if v is not None]
    ylo, yhi = min(ys + [0]) if not logy else min(ys), max(ys)
    yticks = log_ticks(ylo, yhi) if logy else nice_ticks(ylo, yhi)
    if not logy:
        ylo, yhi = min(yticks), max(yticks)
    if logx:
        xticks = log_ticks(min(xs), max(xs))
        if len(xticks) < 2:  # under two decades: mark the data points
            xticks = sorted(set(xs))
    else:
        xticks = xs if len(xs) <= 8 else nice_ticks(min(xs), max(xs))
    sx = Scale(min(xs), max(xs), x0 + 8, x1 - 8, log=logx)
    sy = Scale(ylo, yhi, y1, y0 + 6, log=logy)
    draw_axes(svg, sx, sy, xticks, yticks, xlabel, ylabel)
    legend = []
    for i, (name, vals) in enumerate(series):
        color = series_color(name, i)
        pts = [(sx(x), sy(v)) for x, v in zip(xs, vals) if v is not None]
        path = " ".join(f"{_c(px)},{_c(py)}" for px, py in pts)
        svg.add(f"<polyline points=\"{path}\" fill=\"none\" "
                f"stroke=\"{color}\" stroke-width=\"2\" "
                f"stroke-linejoin=\"round\"/>")
        for px, py in pts:
            svg.add(f"<circle cx=\"{_c(px)}\" cy=\"{_c(py)}\" r=\"4\" "
                    f"fill=\"{color}\" stroke=\"{SURFACE}\" "
                    f"stroke-width=\"2\"/>")
        legend.append((series_label(name), color))
    draw_legend(svg, legend)
    return svg.finish()


def bar_chart(title, xlabel, ylabel, labels, values, colors=None):
    svg = Svg(title)
    x0, y0, x1, y1 = svg.plot_rect()
    yticks = nice_ticks(min(0, min(values)), max(values))
    sy = Scale(min(yticks), max(yticks), y1, y0 + 6)
    draw_axes(svg, sy=sy, sx=lambda v: v, xticks=[], yticks=yticks,
              xlabel=xlabel, ylabel=ylabel)
    n = len(labels)
    slot = (x1 - x0) / n
    width = min(56.0, slot * 0.6)
    for i, (label, value) in enumerate(zip(labels, values)):
        color = colors[i] if colors else series_color(str(label), i)
        cx = x0 + slot * (i + 0.5)
        top = sy(value)
        base = sy(max(min(yticks), 0))  # bars anchor to the zero line
        svg.add(f"<rect x=\"{_c(cx - width / 2)}\" y=\"{_c(top)}\" "
                f"width=\"{_c(width)}\" height=\"{_c(max(base - top, 0))}\" "
                f"rx=\"4\" fill=\"{color}\"/>")
        svg.add(f"<text x=\"{_c(cx)}\" y=\"{_c(top - 6)}\" {FONT} "
                f"font-size=\"11\" text-anchor=\"middle\" fill=\"{INK}\">"
                f"{fmt_num(round(value, 2))}</text>")
        svg.add(f"<text x=\"{_c(cx)}\" y=\"{_c(y1 + 17)}\" {FONT} "
                f"font-size=\"11\" text-anchor=\"middle\" "
                f"fill=\"{INK_SECONDARY}\">{esc(label)}</text>")
    return svg.finish()


# ----------------------------------------------------------------------------
# Per-figure specs: which table becomes which chart.  `series="auto"` plots
# every numeric non-timing column except x and avg_results.

FIGURES = {
    "fig09_bulkload_tiger": {
        "title": "Figure 9: bulk-load cost on TIGER-like data",
        "charts": [{"table": "build", "kind": "bar_grouped",
                    "label": ["region", "variant"],
                    "value": "blocks_per_record",
                    "ylabel": "build I/O (blocks per record)"}],
    },
    "fig10_bulkload_scaling": {
        "title": "Figure 10: bulk-load I/O vs dataset size",
        "charts": [{"table": "build_io", "kind": "line", "x": "records",
                    "series": ["H_io", "H4_io", "PR_io", "TGS_io"],
                    "ylabel": "build I/O (blocks)"}],
    },
    "fig11_tgs_synthetic": {
        "title": "Figure 11: TGS build cost on synthetic data",
        "charts": [{"table": "tgs_build", "kind": "bar",
                    "label": ["dataset"], "value": "tgs_over_pr_io",
                    "ylabel": "TGS / PR build I/O"}],
    },
    "fig12_query_western": {
        "title": "Figure 12: query cost, TIGER-like Western",
        "charts": [{"table": "query_cost", "kind": "line",
                    "x": "query_area_pct", "series": "auto",
                    "xlabel": "query area (% of extent)",
                    "ylabel": "leaf I/O (% of optimal T/B)"}],
    },
    "fig13_query_eastern": {
        "title": "Figure 13: query cost, TIGER-like Eastern",
        "charts": [{"table": "query_cost", "kind": "line",
                    "x": "query_area_pct", "series": "auto",
                    "xlabel": "query area (% of extent)",
                    "ylabel": "leaf I/O (% of optimal T/B)"}],
    },
    "fig14_query_scaling": {
        "title": "Figure 14: query cost vs dataset size",
        "charts": [{"table": "query_cost", "kind": "line", "x": "records",
                    "series": "auto",
                    "ylabel": "leaf I/O (% of optimal T/B)"}],
    },
    "fig15_query_synthetic": {
        "title": "Figure 15: query cost on synthetic families",
        "charts": [
            {"table": "size", "kind": "line", "x": "max_side",
             "series": "auto", "logx": True, "suffix": "size",
             "ylabel": "leaf I/O (% of optimal T/B)"},
            {"table": "aspect", "kind": "line", "x": "aspect",
             "series": "auto", "logx": True, "suffix": "aspect",
             "ylabel": "leaf I/O (% of optimal T/B)"},
            {"table": "skewed", "kind": "line", "x": "c", "series": "auto",
             "suffix": "skewed",
             "ylabel": "leaf I/O (% of optimal T/B)"},
        ],
    },
    "table1_cluster": {
        "title": "Table 1: CLUSTER worst-case queries",
        "charts": [{"table": "cluster_query", "kind": "bar",
                    "label": ["variant"], "value": "pct_tree_visited",
                    "ylabel": "% of tree visited per query"}],
    },
    "thm3_worstcase": {
        "title": "Theorem 3: empty queries on the worst-case grid",
        "charts": [{"table": "worstcase", "kind": "bar",
                    "label": ["variant"], "value": "pct_leaves",
                    "ylabel": "% of leaves visited (empty query)"}],
    },
    "ablation_block_size": {
        "title": "Ablation: block size",
        "charts": [{"table": "block_size", "kind": "line", "x": "block_size",
                    "series": ["pct_of_optimal"], "logx": True,
                    "ylabel": "leaf I/O (% of optimal T/B)"}],
    },
    "ablation_cache": {
        "title": "Ablation: internal-node caching",
        "charts": [{"table": "cache", "kind": "bar", "label": ["variant"],
                    "value": "overhead_pct",
                    "ylabel": "uncached overhead (%)"}],
    },
    "ablation_memory": {
        "title": "Ablation: memory budget vs build I/O",
        "charts": [{"table": "memory", "kind": "line", "x": "memory_kb",
                    "series": ["pr_io", "h_io"], "logx": True,
                    "xlabel": "memory budget (KB)",
                    "ylabel": "build I/O (blocks)"}],
    },
    "ablation_priority_size": {
        "title": "Ablation: priority-leaf fill fraction",
        "charts": [{"table": "priority_fill", "kind": "line", "x": "fill",
                    "series": ["pct_of_optimal"],
                    "ylabel": "leaf I/O (% of optimal T/B)"}],
    },
    "ablation_query_bound": {
        "title": "Ablation: Theorem 1 constant",
        "charts": [{"table": "bound", "kind": "line", "x": "n",
                    "series": ["pr_constant"],
                    "ylabel": "measured c in c*sqrt(N/B)"}],
    },
    "ablation_updates": {
        "title": "Ablation: updates",
        "charts": [{"table": "updates", "kind": "bar",
                    "label": ["configuration"], "value": "leaves_per_query",
                    "ylabel": "leaves per stabbing query"}],
    },
}


def get_table(doc, name):
    for t in doc["tables"]:
        if t["name"] == name:
            return t
    return None


def markdown_table(table):
    keep = [i for i, c in enumerate(table["columns"]) if not is_timing(c)]
    cols = [table["columns"][i] for i in keep]
    lines = ["| " + " | ".join(cols) + " |",
             "|" + "|".join("---" for _ in cols) + "|"]
    for row in table["rows"]:
        lines.append("| " + " | ".join(fmt_num(row[i]) for i in keep) + " |")
    return "\n".join(lines)


def auto_series(table, x):
    skip = {x, "avg_results"}
    return [c for c in table["columns"]
            if c not in skip and not is_timing(c)
            and any(isinstance(r[table["columns"].index(c)], (int, float))
                    for r in table["rows"])]


def render_chart(doc, spec, title):
    table = get_table(doc, spec["table"])
    if table is None or not table["rows"]:
        return None
    cols = table["columns"]
    if spec["kind"] == "line":
        xi = cols.index(spec["x"])
        names = (auto_series(table, spec["x"]) if spec["series"] == "auto"
                 else spec["series"])
        xs = [r[xi] for r in table["rows"]]
        series = [(n, [r[cols.index(n)] for r in table["rows"]])
                  for n in names]
        return line_chart(title, spec.get("xlabel", spec["x"]),
                          spec["ylabel"], xs, series,
                          logx=spec.get("logx", False),
                          logy=spec.get("logy", False))
    vi = cols.index(spec["value"])
    lis = [cols.index(c) for c in spec["label"]]
    labels = [" ".join(str(r[i]) for i in lis) for r in table["rows"]]
    if spec["kind"] == "bar_grouped":
        # color by the last label component (the variant), label with both
        colors = [series_color(str(r[lis[-1]]), i)
                  for i, r in enumerate(table["rows"])]
    else:
        colors = [series_color(labels[i], i) for i in range(len(labels))]
    values = [r[vi] for r in table["rows"]]
    return bar_chart(title, "", spec["ylabel"], labels, values, colors)


def render_figure(doc, out_dir):
    name = doc["bench"]
    spec = FIGURES[name]
    images = []
    for chart in spec["charts"]:
        svgtext = render_chart(doc, chart, spec["title"] +
                               (f" — {chart['suffix']}" if "suffix" in chart
                                else ""))
        if svgtext is None:
            continue
        fname = name + ("." + chart["suffix"] if "suffix" in chart else "") \
            + ".svg"
        with open(os.path.join(out_dir, fname), "w") as f:
            f.write(svgtext)
        images.append(fname)

    lines = [f"# {spec['title']}", "",
             f"Generated by `tools/eval/run_eval.py` from "
             f"`{name} --json` output; counters only "
             f"(timing columns are dropped — see docs/BENCH_FORMAT.md).", ""]
    params = doc.get("params", {})
    if params:
        lines.append("Parameters: " +
                     ", ".join(f"{k}={fmt_num(v)}"
                               for k, v in sorted(params.items())) + ".")
        lines.append("")
    for img in images:
        lines.append(f"![{spec['title']}]({img})")
        lines.append("")
    for table in doc["tables"]:
        lines.append(f"## {table['name']}")
        lines.append("")
        lines.append(markdown_table(table))
        lines.append("")
    with open(os.path.join(out_dir, name + ".md"), "w") as f:
        f.write("\n".join(lines))


def render_all(results_dir, out_dir, device="memory"):
    os.makedirs(out_dir, exist_ok=True)
    rendered = []
    for name in sorted(FIGURES):
        path = os.path.join(results_dir, f"{name}.{device}.json")
        if not os.path.exists(path):
            continue
        with open(path) as f:
            doc = json.load(f)
        render_figure(doc, out_dir)
        rendered.append(name)
    return rendered


# ----------------------------------------------------------------------------


def self_test():
    """Render a fixture twice into temp dirs; the bytes must match."""
    import tempfile
    fixture = {
        "bench": "fig12_query_western",
        "params": {"n": 1000, "queries": 4, "seed": 1, "device": "memory"},
        "tables": [{
            "name": "query_cost",
            "columns": ["query_area_pct", "avg_results",
                        "TGS_pct_of_optimal", "PR_pct_of_optimal",
                        "H_pct_of_optimal", "H4_pct_of_optimal"],
            "rows": [[0.25, 10, 300.0, 250.0, 400.5, 500.25],
                     [1.0, 40, 200.0, 150.0, 300.5, 400.25],
                     [2.0, 80, 150.0, 120.0, 250.5, 300.25]],
        }],
    }
    bar_fixture = {
        "bench": "table1_cluster",
        "params": {"n": 1000},
        "tables": [{
            "name": "cluster_query",
            "columns": ["variant", "avg_leaf_io", "pct_tree_visited",
                        "avg_results", "build_io"],
            "rows": [["H", 50.0, 40.0, 3, 100], ["PR", 2.0, 1.5, 3, 120]],
        }],
    }
    outputs = []
    for _ in range(2):
        with tempfile.TemporaryDirectory() as tmp:
            for doc in (fixture, bar_fixture):
                render_figure(doc, tmp)
            blob = {}
            for f in sorted(os.listdir(tmp)):
                with open(os.path.join(tmp, f), "rb") as fh:
                    blob[f] = fh.read()
            outputs.append(blob)
    assert outputs[0] == outputs[1], "renderer is not deterministic"
    files = sorted(outputs[0])
    assert files == ["fig12_query_western.md", "fig12_query_western.svg",
                     "table1_cluster.md", "table1_cluster.svg"], files
    svg = outputs[0]["fig12_query_western.svg"].decode()
    assert VARIANT_COLORS["PR"] in svg and VARIANT_COLORS["TGS"] in svg
    assert "</svg>" in svg
    md = outputs[0]["fig12_query_western.md"].decode()
    assert "| query_area_pct |" in md and "300.2" in md
    # Timing columns must never reach the committed docs.
    timing_doc = {
        "bench": "ablation_memory", "params": {},
        "tables": [{"name": "memory",
                    "columns": ["memory_kb", "pr_io", "pr_seconds", "h_io",
                                "pr_over_h"],
                    "rows": [[512, 100, 1.23456, 50, 2.0],
                             [1024, 90, 0.5, 45, 2.0]]}],
    }
    with tempfile.TemporaryDirectory() as tmp:
        render_figure(timing_doc, tmp)
        with open(os.path.join(tmp, "ablation_memory.md")) as f:
            md = f.read()
        assert "pr_seconds" not in md and "1.23456" not in md
    print("render.py self-test OK")


if __name__ == "__main__":
    self_test()
