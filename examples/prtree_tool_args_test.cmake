# Malformed numeric flags must make prtree_tool exit 2 (usage error), and
# promptly.  Parsing runs before the index is opened, so the index path
# need not exist: a parser that accepted the value would reach the open
# and fail it with exit 1 instead, and one that looped would hit the
# per-run timeout.
#
#   cmake -DTOOL=path/to/prtree_tool -P prtree_tool_args_test.cmake

set(_index --index=no-such-index.prt)

function(expect_exit code)
  execute_process(COMMAND ${TOOL} ${ARGN} RESULT_VARIABLE rc TIMEOUT 3
                  OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc STREQUAL code)
    message(FATAL_ERROR "prtree_tool ${ARGN}: exit '${rc}', expected ${code}")
  endif()
endfunction()

expect_exit(2 knn ${_index} --point=0.5,x)
expect_exit(2 knn ${_index} --point=x,0.5)
expect_exit(2 knn ${_index} --point=0.5x,0.5)
expect_exit(2 knn ${_index} --point=0.5)
expect_exit(2 knn ${_index} --point=0.5,0.5,)
expect_exit(2 knn ${_index} --point=0.5,0.5,0.5)
expect_exit(2 knn ${_index} --point=nan,0.5)
expect_exit(2 knn ${_index} --point=0.5,0.5 --k=abc)
expect_exit(2 knn ${_index} --point=0.5,0.5 --k=-1)
expect_exit(2 knn ${_index} --point=0.5,0.5 --k=0)
expect_exit(2 knn ${_index} --point=0.5,0.5 --k=10x)
expect_exit(2 knn ${_index} --point=0.5,0.5 --k=)
expect_exit(2 knn ${_index} --point=0.5,0.5 --k=99999999999999999999999)
expect_exit(2 query ${_index} --window=0,0,1,x)
expect_exit(2 query ${_index} --window=0,0,1)
expect_exit(2 query ${_index} --window=0,0,1,1,)
expect_exit(2 query ${_index} --window=0,,1,1)

# Well-formed flags get past parsing and fail on the missing index.
expect_exit(1 knn ${_index} --point=0.5,0.5 --k=3)
expect_exit(1 query ${_index} --window=0,0,1,1)
