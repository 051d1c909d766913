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
# shows up in queueing delay, not just in the transfer ledger.
set(ARGS --mix=pipeline --streams=8 --policy=corun --arrival=poisson:300
         --duration=0.2 --seed=5)

foreach(PLACE residency blind)
  execute_process(
    COMMAND "${TOOL}" ${ARGS} "--dag-placement=${PLACE}"
            "--stats-json=${OUT_DIR}/dag-${PLACE}.json"
    RESULT_VARIABLE RC
    OUTPUT_QUIET)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR
            "fluidicl_serve --dag-placement=${PLACE} exited with ${RC}")
  endif()
  file(READ "${OUT_DIR}/dag-${PLACE}.json" JSON)
  string(REGEX MATCH "\"serve_dag_pcie_bytes\": ([0-9]+)" _ "${JSON}")
  if(NOT CMAKE_MATCH_1)
    message(FATAL_ERROR
            "${PLACE} report lacks serve_dag_pcie_bytes")
  endif()
  set(${PLACE}_PCIE "${CMAKE_MATCH_1}")
  string(REGEX MATCH "\"e2e\": {\"p50\": [0-9.]+, \"p95\": ([0-9.]+)"
         _ "${JSON}")
  if(NOT CMAKE_MATCH_1)
    message(FATAL_ERROR "${PLACE} report lacks an e2e p95 figure")
  endif()
  set(${PLACE}_P95 "${CMAKE_MATCH_1}")
endforeach()

if(NOT residency_PCIE LESS blind_PCIE)
  message(FATAL_ERROR
          "residency placement moved ${residency_PCIE} PCIe bytes, blind "
          "moved ${blind_PCIE} - residency must be strictly lower")
endif()
if(NOT residency_P95 LESS blind_P95)
  message(FATAL_ERROR
          "residency placement p95 e2e ${residency_P95} ms, blind "
          "${blind_P95} ms - residency must be strictly lower")
endif()
message(STATUS
        "residency beats blind: pcie ${residency_PCIE} < ${blind_PCIE} "
        "bytes, p95 ${residency_P95} < ${blind_P95} ms")
