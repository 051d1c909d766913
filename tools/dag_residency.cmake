# Placement-quality gate for the compound (DAG) executor: under a loaded
# pipeline mix, residency-aware node placement must strictly beat the
# residency-blind baseline on BOTH total PCIe bytes moved AND p95
# end-to-end latency. The blind baseline scores nodes on backlog +
# compute only and stages every node's inputs/outputs through the host,
# which is exactly what a serving tier without a residency tracker would
# do. Invoked by ctest as
#
#   cmake -DTOOL=<fluidicl_serve> -DOUT_DIR=<scratch dir> -P dag_residency.cmake

if(NOT DEFINED TOOL OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR "dag_residency.cmake needs -DTOOL= and -DOUT_DIR=")
endif()

file(MAKE_DIRECTORY "${OUT_DIR}")
# Enough offered load that the GPU queue is busy: per-node staging then
# shows up in queueing delay, not just in the transfer ledger. Residency
# must move fewer PCIe bytes on every seed. Per seed the two placements'
# p95 are close, since host API time delays only the job that pays it
# (seed 5 goes to blind by 2%), so the latency claim is on p95 summed over
# the ten seeds.
set(ARGS --mix=pipeline --streams=8 --policy=corun --arrival=poisson:300
         --duration=0.2)
set(residency_P95_NS 0)
set(blind_P95_NS 0)

foreach(SEED RANGE 1 10)
  foreach(PLACE residency blind)
    set(OUT "${OUT_DIR}/dag-${PLACE}-${SEED}.json")
    execute_process(
      COMMAND "${TOOL}" ${ARGS} "--seed=${SEED}" "--dag-placement=${PLACE}"
              "--stats-json=${OUT}"
      RESULT_VARIABLE RC
      OUTPUT_QUIET)
    if(NOT RC EQUAL 0)
      message(FATAL_ERROR
              "fluidicl_serve --dag-placement=${PLACE} --seed=${SEED} "
              "exited with ${RC}")
    endif()
    file(READ "${OUT}" JSON)
    string(REGEX MATCH "\"serve_dag_pcie_bytes\": ([0-9]+)" _ "${JSON}")
    if(NOT CMAKE_MATCH_1)
      message(FATAL_ERROR
              "${PLACE} report lacks serve_dag_pcie_bytes")
    endif()
    set(${PLACE}_PCIE "${CMAKE_MATCH_1}")
    # The report prints milliseconds with six decimals: sum them as
    # integer nanoseconds.
    string(REGEX MATCH
           "\"e2e\": {\"p50\": [0-9.]+, \"p95\": ([0-9]+)\\.([0-9]+)"
           _ "${JSON}")
    if(CMAKE_MATCH_1 STREQUAL "")
      message(FATAL_ERROR "${PLACE} report lacks an e2e p95 figure")
    endif()
    set(MS "${CMAKE_MATCH_1}")
    string(SUBSTRING "${CMAKE_MATCH_2}000000" 0 6 FRAC)
    string(REGEX REPLACE "^0+([0-9])" "\\1" FRAC "${FRAC}")
    math(EXPR ${PLACE}_P95_NS
         "${${PLACE}_P95_NS} + ${MS} * 1000000 + ${FRAC}")
  endforeach()
  if(NOT residency_PCIE LESS blind_PCIE)
    message(FATAL_ERROR
            "seed ${SEED}: residency placement moved ${residency_PCIE} PCIe "
            "bytes, blind moved ${blind_PCIE} - residency must be strictly "
            "lower")
  endif()
endforeach()

if(NOT residency_P95_NS LESS blind_P95_NS)
  message(FATAL_ERROR
          "residency placement p95 e2e summed over seeds 1-10 is "
          "${residency_P95_NS} ns, blind ${blind_P95_NS} ns - residency "
          "must be strictly lower")
endif()
message(STATUS
        "residency beats blind: pcie lower on seeds 1-10, summed p95 "
        "${residency_P95_NS} < ${blind_P95_NS} ns")
