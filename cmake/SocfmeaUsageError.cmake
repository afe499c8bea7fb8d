# socfmea_usage_error(<test name> <tool target> <args> <stderr regex>)
#
# Registers a ctest that runs <tool target> with <args> (space-separated)
# and passes only if it fails closed: exit code 2, the usage-error
# convention, plus a stderr diagnostic matching <stderr regex>.
function(socfmea_usage_error name tool args expect)
  add_test(NAME ${name}
           COMMAND ${CMAKE_COMMAND}
                   -DTOOL=$<TARGET_FILE:${tool}>
                   "-DARGS=${args}"
                   "-DEXPECT=${expect}"
                   -P ${PROJECT_SOURCE_DIR}/cmake/usage_error_check.cmake)
  set_tests_properties(${name} PROPERTIES TIMEOUT 60)
endfunction()
