# Search engine identity: one small architecture search run on the serial
# reference engine and again on the default (bit-sliced) engine, each from
# a fresh artifact store, must produce the same `search` section —
# candidates, scores, criticality, Pareto frontier, verify verdict.  Only
# the process telemetry (timings, engine counters) may differ, so it is
# stripped and the rest compared byte for byte.
set(shape --rounds 1 --beam 1 --candidates 1 --target-sff 0.96)
foreach(run serial default)
  file(REMOVE_RECURSE ${WORK}/search-identity-${run})
  if(run STREQUAL "serial")
    set(engine_args --engine serial)
  else()
    set(engine_args)
  endif()
  execute_process(COMMAND ${SEARCH} --cache-dir ${WORK}/search-identity-${run}
                          ${engine_args} ${shape}
                          --json ${WORK}/search_identity_${run}.json
                  RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "arch_search (${run} engine) failed (rc ${rc})")
  endif()
  execute_process(COMMAND ${GATE} strip ${WORK}/search_identity_${run}.json
                          ${WORK}/search_identity_${run}.stripped.json
                          telemetry
                  RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "report_gate strip failed (rc ${rc})")
  endif()
endforeach()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${WORK}/search_identity_serial.stripped.json
                        ${WORK}/search_identity_default.stripped.json
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "the default-engine search report differs from the serial-engine "
          "one; diff search_identity_{serial,default}.stripped.json")
endif()
