# Runs one figure/table/ablation bench and diffs its stdout against the
# pinned output in bench/golden/. The benches report deterministic
# modeled cycles, so the comparison is exact.
#
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -DACTUAL=<file> -P CompareGolden.cmake
execute_process(COMMAND "${BENCH}"
  OUTPUT_FILE "${ACTUAL}"
  RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${Rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
  "${GOLDEN}" "${ACTUAL}"
  RESULT_VARIABLE Differs)
if(NOT Differs EQUAL 0)
  find_program(Diff diff)
  if(Diff)
    execute_process(COMMAND "${Diff}" -u "${GOLDEN}" "${ACTUAL}")
  endif()
  message(FATAL_ERROR "output differs from ${GOLDEN} (actual output in "
    "${ACTUAL}); a deliberate model change re-pins it by copying the "
    "actual output over the golden file")
endif()
