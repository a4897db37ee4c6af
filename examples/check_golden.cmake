# Runs EXE and compares its stdout byte for byte with the file EXPECTED;
# on a mismatch, prints a unified diff and fails.
#   cmake -DEXE=<program> -DEXPECTED=<file> -P check_golden.cmake
execute_process(COMMAND "${EXE}" OUTPUT_VARIABLE actual RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with status ${status}")
endif()
file(READ "${EXPECTED}" expected)
if(NOT "${actual}" STREQUAL "${expected}")
  get_filename_component(name "${EXPECTED}" NAME)
  file(WRITE "${name}.actual" "${actual}")
  execute_process(COMMAND diff -u "${EXPECTED}" "${name}.actual")
  message(FATAL_ERROR "output of ${EXE} differs from ${EXPECTED}")
endif()
