# Malformed flag values must make the bench programs exit 2 (usage error),
# and promptly.  Parsing runs before any data is generated or any device
# opened: a parser that looped would hit the per-run timeout, and one that
# accepted the value would start a run and exit with something other
# than 2.  Each variable names one binary; the script checks those given:
#
#   cmake -DSWEEP=path/to/outofcore_sweep -P bench_args_test.cmake
#   cmake -DBULK=path/to/bulkload_parallel -DWARM=path/to/query_warm
#         -DMIXED=path/to/throughput_concurrent
#         -DFIG=path/to/fig12_query_western -P bench_args_test.cmake
#
# Tiny well-formed runs must get past parsing and exit 0 (their JSON lands
# in the test's working directory).

function(expect_exit code bin)
  execute_process(COMMAND ${bin} ${ARGN} RESULT_VARIABLE rc TIMEOUT 3
                  OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc STREQUAL code)
    get_filename_component(name ${bin} NAME)
    message(FATAL_ERROR "${name} ${ARGN}: exit '${rc}', expected ${code}")
  endif()
endfunction()

# Every numeric flag goes through one checked parse: the whole value must
# be a number, and a count must be at least 1.
function(expect_bad_numbers bin)
  foreach(arg --n=abc --n= --n=10x --n=0 --n=-5 --seed=1.5 ${ARGN})
    expect_exit(2 ${bin} ${arg})
  endforeach()
endfunction()

if(DEFINED SWEEP)
  expect_bad_numbers(${SWEEP} --queries=x --repeats=abc --repeats=0)
  foreach(arg
      --budgets=x --budgets=0.5x --budgets= --budgets=0.5, --budgets=,0.5
      --budgets=0.5,,0.25 --budgets=0 --budgets=-0.5 --budgets=1.5
      --budgets=nan --records= --records=abc --records=0 --records=0.5
      --records=-5 --records=10X --records=10KK --records=1K,
      --records=x..10K --records=0..1K --records=2K..1K --records=1K..
      --records=1K..2K..4K)
    expect_exit(2 ${SWEEP} ${arg})
  endforeach()
  expect_exit(2 ${SWEEP} --smoke --budgets=x)
  expect_exit(2 ${SWEEP} --smoke --records=abc)
  expect_exit(0 ${SWEEP} --records=1k..2K,3000 --queries=4 --repeats=1
              --out=BENCH_args_scale.json)
  expect_exit(0 ${SWEEP} --budgets=0.5,1 --n=2000 --queries=4 --repeats=1
              --out=BENCH_args_outofcore.json)
endif()

if(DEFINED BULK)
  expect_bad_numbers(${BULK})
  expect_exit(0 ${BULK} --n=2000 --seed=0 --out=BENCH_args_bulkload.json)
endif()

if(DEFINED WARM)
  expect_bad_numbers(${WARM} --queries=x --repeats=abc --knn=0 --k=x
                     --qarea=0 --qarea=nan --qarea=0.1y)
  expect_exit(0 ${WARM} --n=2000 --queries=4 --knn=2 --k=3 --qarea=0.01
              --repeats=1 --out=BENCH_args_warmquery.json)
endif()

if(DEFINED MIXED)
  expect_bad_numbers(${MIXED} --queries=x --scale=0 --threads=x
                     --threads-max=x --threads-max=0 --threads-max=65)
  expect_exit(0 ${MIXED} --n=2000 --queries=50 --mix=40,10,40,10
              --threads-max=1 --out=BENCH_args_mixed.json)
endif()

if(DEFINED FIG)
  expect_bad_numbers(${FIG} --queries=x --scale=inf --scale=-1
                     --threads=0 --threads=2.5)
  expect_exit(0 ${FIG} --n=2000 --queries=4 --scale=0.5 --threads=2)
endif()
