# Bad-input gate: every tool that takes an option must reject each bad
# value of it with exit status 1 and exactly one stderr line naming the
# problem - never an abort (134), never a silent fallback. The table's
# rows fall in three groups, and ROWS picks the one to run: machine
# (unknown --machine names), policy (unknown policy and placement names)
# or range (junk and out-of-range numbers, and fluidicl_sim's --runtime
# and --workload names). Invoked by ctest as
#
#   cmake -DROWS=<machine|policy|range>
#         -DSIM=<fluidicl_sim> -DCHECK=<fluidicl_check>
#         -DSERVE=<fluidicl_serve> -DCLUSTER=<fluidicl_cluster>
#         -P bad_input_errors.cmake

foreach(V ROWS SIM CHECK SERVE CLUSTER)
  if(NOT DEFINED ${V})
    message(FATAL_ERROR "bad_input_errors.cmake needs -D${V}=")
  endif()
endforeach()

# Keeps each run short should a bad value ever be accepted.
set(SIM_ARGS --workload=syrk --size=64)
set(CHECK_ARGS)
set(SERVE_ARGS --streams=2 --duration=0.01)
set(CLUSTER_ARGS --workers=2 --streams=2 --duration=0.01)

if(NOT ROWS MATCHES "^(machine|policy|range)$")
  message(FATAL_ERROR "bad_input_errors.cmake: unknown ROWS '${ROWS}'")
endif()

# expect_error(<group> <tools> <stderr regex> <bad argument>)
function(expect_error GROUP TOOLS PATTERN BAD)
  if(NOT GROUP STREQUAL ROWS)
    return()
  endif()
  foreach(T ${TOOLS})
    get_filename_component(NAME "${${T}}" NAME)
    execute_process(
      COMMAND "${${T}}" ${${T}_ARGS} ${BAD}
      RESULT_VARIABLE RC
      OUTPUT_QUIET
      ERROR_VARIABLE ERR)
    if(NOT RC STREQUAL "1")
      message(FATAL_ERROR "${NAME} ${BAD} exited with ${RC}, not 1: ${ERR}")
    endif()
    if(NOT ERR MATCHES "${PATTERN}")
      message(FATAL_ERROR "${NAME} ${BAD} stderr lacks '${PATTERN}': ${ERR}")
    endif()
    # One line only: a trailing newline is fine, embedded ones are not.
    string(REGEX REPLACE "\n$" "" ERR_BODY "${ERR}")
    if(ERR_BODY MATCHES "\n")
      message(FATAL_ERROR "${NAME} ${BAD} printed more than one stderr "
                          "line: ${ERR}")
    endif()
  endforeach()
endfunction()

set(ALL SIM CHECK SERVE CLUSTER)
set(TIERS SERVE CLUSTER)
expect_error(machine "${ALL}" "unknown --machine 'nosuch'" --machine=nosuch)
expect_error(policy "${TIERS}" "unknown --policy 'nosuch'" --policy=nosuch)
expect_error(policy "${TIERS}" "unknown --dag-placement 'nosuch'"
             --dag-placement=nosuch)
expect_error(policy CLUSTER "unknown --placement 'nosuch'" --placement=nosuch)
expect_error(range "${TIERS}" "--streams must be >= 1" --streams=0)
expect_error(range "${TIERS}" "--duration must be > 0" --duration=0)
expect_error(range "${TIERS}" "--queue-depth must be >= 1" --queue-depth=0)
expect_error(range "${TIERS}" "--threshold must be >= 0" --threshold=-1)
expect_error(range CLUSTER "--workers must be in" --workers=0)
expect_error(range CLUSTER "--quantum-ms must be > 0" --quantum-ms=0)
expect_error(range CLUSTER "--link-us must be >= 0" --link-us=-5)
# Junk numbers: every option with a numeric default takes one complete,
# finite number.
expect_error(range "${TIERS}" "option '--seed' expects a number" --seed=xyz)
expect_error(range "${TIERS}" "option '--duration' expects a number"
             --duration=0.05x)
expect_error(range "${TIERS}" "option '--duration' expects a number"
             --duration=inf)
expect_error(range "${TIERS}" "option '--slo-ms' expects a number"
             --slo-ms=nan)
expect_error(range SIM "option '--size' expects a number" --size=abc)
# fluidicl_sim's own ranges (fluidicl::Options::validate for the chunks).
expect_error(range SIM "--chunk must be in" --chunk=0)
expect_error(range SIM "--chunk must be in" --chunk=200)
expect_error(range SIM "--step must be >= 0" --step=-3)
foreach(SIZE 1 16 48 -5)
  expect_error(range SIM "--size must be 0 or a positive multiple of 32"
               --size=${SIZE})
endforeach()
expect_error(range SIM "--gpu-fraction must be in" --gpu-fraction=2)
expect_error(range SIM "unknown --runtime 'bogus'" --runtime=bogus)
expect_error(range SIM "unknown --workload 'bogus'" --workload=bogus)

message(STATUS "every tool rejects every bad ${ROWS} value it takes cleanly")
