# Every --device opens an index built with every --device: the index file
# is one format whichever device built it.  Generates a dataset, builds it
# with each device, then runs query, knn and stats with each device on each
# index file.  Every run must print the same result lines, and every build
# the same build I/O count.
#
#   cmake -DTOOL=path/to/prtree_tool -DWORK_DIR=work-dir \
#         -P prtree_tool_devices_test.cmake

set(_devices memory file uring)

# Runs prtree_tool with ARGN; fails the test unless it exits 0.  Sets
# `out_var` to its standard output.
function(run_tool out_var)
  execute_process(COMMAND ${TOOL} ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 60)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "prtree_tool ${ARGN}: exit '${rc}'\n${out}${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# Fails unless `actual` equals `expected`.
function(expect_same what expected actual)
  if(NOT actual STREQUAL expected)
    message(FATAL_ERROR "${what} differs:\n${actual}\nexpected:\n${expected}")
  endif()
endfunction()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
set(_data ${WORK_DIR}/data.csv)
run_tool(_ gen --family=tiger --n=20000 --out=${_data})

foreach(build_device IN LISTS _devices)
  set(_index ${WORK_DIR}/${build_device}.prt)
  run_tool(out build --data=${_data} --index=${_index}
           --device=${build_device})
  string(REGEX MATCH "built [^\n]* build I/Os" built "${out}")
  if(NOT built)
    message(FATAL_ERROR "build --device=${build_device}: no build line\n${out}")
  endif()
  if(NOT DEFINED _built)
    set(_built "${built}")
  endif()
  expect_same("build --device=${build_device}" "${_built}" "${built}")

  foreach(open_device IN LISTS _devices)
    set(_open --index=${_index} --device=${open_device})
    run_tool(query query ${_open} --window=0.2,0.2,0.6,0.6)
    run_tool(knn knn ${_open} --point=0.5,0.5 --k=10)
    run_tool(stats stats ${_open})
    set(results "${query}${knn}${stats}")
    if(NOT DEFINED _results)
      set(_results "${results}")
    endif()
    expect_same("${build_device} index opened with --device=${open_device}"
                "${_results}" "${results}")
  endforeach()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
