# CI metrics gate: run the end-to-end SIL3 flow with --json, then diff the
# emitted safety report against the checked-in golden (reports/
# memsys_sil3.golden.json).  The golden is a subset spec — strings exact,
# numbers at rtol 1e-9 — regenerate it with scripts/update_golden.sh after
# an intentional metrics change.  -DENGINE=<kind> runs the same bare flow on
# that campaign engine: verdicts are engine-independent, so the one golden
# gates every engine.
if(DEFINED ENGINE)
  set(engine_args --engine ${ENGINE})
  set(report ${WORK}/memsys_sil3.${ENGINE}.json)
else()
  set(engine_args)
  set(report ${WORK}/memsys_sil3.json)
endif()
execute_process(COMMAND ${FLOW} ${engine_args} --json ${report}
                RESULT_VARIABLE rc1 OUTPUT_QUIET)
if(NOT rc1 EQUAL 0)
  message(FATAL_ERROR "memsys_sil3_flow ${engine_args} failed (rc ${rc1})")
endif()
execute_process(COMMAND ${GATE} check ${GOLDEN} ${report}
                RESULT_VARIABLE rc2)
if(NOT rc2 EQUAL 0)
  message(FATAL_ERROR
          "metrics gate: report drifted from the golden (rc ${rc2}); if the "
          "change is intentional, run scripts/update_golden.sh")
endif()

# Self-test: the gate must REJECT a perturbed report, otherwise it guards
# nothing.  Downgrade the SIL verdict in a copy of the golden and expect a
# non-zero exit.
file(READ ${GOLDEN} golden_text)
string(REPLACE "SIL3" "SIL2" perturbed_text "${golden_text}")
if(perturbed_text STREQUAL golden_text)
  message(FATAL_ERROR "metrics gate self-test: golden lacks a SIL3 verdict")
endif()
file(WRITE ${report}.perturbed "${perturbed_text}")
execute_process(COMMAND ${GATE} check ${report}.perturbed ${report}
                RESULT_VARIABLE rc3 OUTPUT_QUIET ERROR_QUIET)
if(rc3 EQUAL 0)
  message(FATAL_ERROR "metrics gate self-test: perturbed golden not rejected")
endif()
