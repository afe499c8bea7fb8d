# Incremental-flow gate: run the SIL3 flow three times on the same
# v1+wbuf-parity edit — cold into a fresh artifact store, cold into another
# fresh store sharded over two worker processes (--workers 2), and as a delta
# on a store warmed with the v1 baseline — and require the sharded and the
# delta JSON reports to agree with the cold one at rtol 1e-9 after stripping
# the volatile sections (timings, cache counters, delta and shard
# statistics).  The warm run must also stay under the 30 % re-simulation
# budget, which is the acceptance bound for a single architectural edit.
file(REMOVE_RECURSE ${WORK}/inc_gate_cold ${WORK}/inc_gate_workers
                    ${WORK}/inc_gate_warm)

execute_process(COMMAND ${FLOW} --cache-dir ${WORK}/inc_gate_cold
                        --edit wbuf-parity --json ${WORK}/inc_cold.json
                RESULT_VARIABLE rc1 OUTPUT_QUIET)
if(NOT rc1 EQUAL 0)
  message(FATAL_ERROR "cold incremental flow failed (rc ${rc1})")
endif()

execute_process(COMMAND ${FLOW} --cache-dir ${WORK}/inc_gate_workers
                        --edit wbuf-parity --workers 2
                        --json ${WORK}/inc_workers.json
                RESULT_VARIABLE rcw OUTPUT_QUIET)
if(NOT rcw EQUAL 0)
  message(FATAL_ERROR "sharded cold incremental flow failed (rc ${rcw})")
endif()
# A sharding failure falls back to an in-process cold run, which would pass
# the comparison below without exercising the workers at all.
file(READ ${WORK}/inc_workers.json workers_report)
if(NOT workers_report MATCHES "\"distributed_run\": true")
  message(FATAL_ERROR "--workers 2 did not take the sharded campaign path")
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
# flags, store statistics, delta bookkeeping, shard statistics, execution
# counters and process telemetry.  Everything left — verdicts, SFF/DC,
# campaign outcome metrics, coverage — must be bit-identical.
set(volatile stages stage_hits stage_misses store execution delta full_hit
             delta_run distributed_run distributed telemetry)
foreach(run cold workers warm)
  execute_process(COMMAND ${GATE} strip ${WORK}/inc_${run}.json
                          ${WORK}/inc_${run}.stripped.json ${volatile}
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "report_gate strip of the ${run} report failed "
                        "(rc ${rc})")
  endif()
endforeach()

# Both directions: `check` only walks the keys of its first argument.
foreach(run workers warm)
  foreach(pair "cold;${run}" "${run};cold")
    list(GET pair 0 a)
    list(GET pair 1 b)
    execute_process(COMMAND ${GATE} check ${WORK}/inc_${a}.stripped.json
                            ${WORK}/inc_${b}.stripped.json 1e-9
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${b} report drifted from the ${a} run (rc ${rc})")
    endif()
  endforeach()
endforeach()
