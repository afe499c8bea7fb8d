# Incremental-flow gate: run the SIL3 flow twice on the same v1+wbuf-parity
# edit — cold into a fresh artifact store, and as a delta on a store warmed
# with the v1 baseline — and require the delta JSON report to agree with the
# cold one at rtol 1e-9 after stripping the volatile sections (timings,
# cache counters, delta statistics).  The warm run must also stay under the
# 30 % re-simulation budget, which is the acceptance bound for a single
# architectural edit.
file(REMOVE_RECURSE ${WORK}/inc_gate_cold ${WORK}/inc_gate_warm)

execute_process(COMMAND ${FLOW} --cache-dir ${WORK}/inc_gate_cold
                        --edit wbuf-parity --json ${WORK}/inc_cold.json
                RESULT_VARIABLE rc1 OUTPUT_QUIET)
if(NOT rc1 EQUAL 0)
  message(FATAL_ERROR "cold incremental flow failed (rc ${rc1})")
endif()

execute_process(COMMAND ${FLOW} --cache-dir ${WORK}/inc_gate_warm --edit none
                RESULT_VARIABLE rc2 OUTPUT_QUIET)
if(NOT rc2 EQUAL 0)
  message(FATAL_ERROR "v1 store-warming flow failed (rc ${rc2})")
endif()

execute_process(COMMAND ${FLOW} --cache-dir ${WORK}/inc_gate_warm
                        --edit wbuf-parity --max-resim 0.30
                        --json ${WORK}/inc_warm.json
                RESULT_VARIABLE rc3 OUTPUT_QUIET)
if(NOT rc3 EQUAL 0)
  message(FATAL_ERROR
          "warm one-edit delta flow failed (rc ${rc3}); rc 3 means the "
          "campaign re-simulated more than 30 % of the fault list")
endif()

# Strip what legitimately differs between the runs: stage timings/cache
# flags, store statistics, delta bookkeeping, execution counters and process
# telemetry.  Everything left — verdicts, SFF/DC,
# campaign outcome metrics, coverage — must be bit-identical.
set(volatile stages stage_hits stage_misses store execution delta full_hit
             delta_run telemetry)
foreach(run cold warm)
  execute_process(COMMAND ${GATE} strip ${WORK}/inc_${run}.json
                          ${WORK}/inc_${run}.stripped.json ${volatile}
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "report_gate strip of the ${run} report failed "
                        "(rc ${rc})")
  endif()
endforeach()

# Both directions: `check` only walks the keys of its first argument.
foreach(pair "cold;warm" "warm;cold")
  list(GET pair 0 a)
  list(GET pair 1 b)
  execute_process(COMMAND ${GATE} check ${WORK}/inc_${a}.stripped.json
                          ${WORK}/inc_${b}.stripped.json 1e-9
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${b} report drifted from the ${a} run (rc ${rc})")
  endif()
endforeach()
