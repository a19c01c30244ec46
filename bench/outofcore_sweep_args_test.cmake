# Malformed --budgets/--records values must make outofcore_sweep exit 2
# (usage error), and promptly.  Parsing runs before any data is generated
# or any device opened: a parser that looped would hit the per-run
# timeout, and one that accepted the value would start a sweep and exit
# with something other than 2.
#
#   cmake -DSWEEP=path/to/outofcore_sweep -P outofcore_sweep_args_test.cmake

function(expect_exit code)
  execute_process(COMMAND ${SWEEP} ${ARGN} RESULT_VARIABLE rc TIMEOUT 3
                  OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc STREQUAL code)
    message(FATAL_ERROR
            "outofcore_sweep ${ARGN}: exit '${rc}', expected ${code}")
  endif()
endfunction()

expect_exit(2 --budgets=x)
expect_exit(2 --budgets=0.5x)
expect_exit(2 --budgets=)
expect_exit(2 --budgets=0.5,)
expect_exit(2 --budgets=,0.5)
expect_exit(2 --budgets=0.5,,0.25)
expect_exit(2 --budgets=0)
expect_exit(2 --budgets=-0.5)
expect_exit(2 --budgets=1.5)
expect_exit(2 --budgets=nan)
expect_exit(2 --records=)
expect_exit(2 --records=abc)
expect_exit(2 --records=0)
expect_exit(2 --records=0.5)
expect_exit(2 --records=-5)
expect_exit(2 --records=10X)
expect_exit(2 --records=10KK)
expect_exit(2 --records=1K,)
expect_exit(2 --records=x..10K)
expect_exit(2 --records=0..1K)
expect_exit(2 --records=2K..1K)
expect_exit(2 --records=1K..)
expect_exit(2 --records=1K..2K..4K)
expect_exit(2 --smoke --budgets=x)
expect_exit(2 --smoke --records=abc)

# Well-formed values get past parsing: tiny runs that finish and exit 0
# (their JSON lands in the test's working directory).
expect_exit(0 --records=1k..2K,3000 --queries=4 --repeats=1
            --out=BENCH_args_scale.json)
expect_exit(0 --budgets=0.5,1 --n=2000 --queries=4 --repeats=1
            --out=BENCH_args_outofcore.json)
