# Runs a CLI with a malformed flag value and asserts it fails closed: exit
# code 2 (the usage-error convention) plus a diagnostic on stderr matching
# EXPECT.
#
#   cmake -DTOOL=<binary> "-DARGS=<space-separated args>" -DEXPECT=<regex>
#         -P cmake/usage_error_check.cmake

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${TOOL} ${ARGS}: exit '${rc}', expected 2 "
                      "(stdout: '${out}', stderr: '${err}')")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "${TOOL} ${ARGS}: stderr lacks '${EXPECT}' "
                      "(got: '${err}')")
endif()
message(STATUS "${ARGS}: rejected with exit 2")
