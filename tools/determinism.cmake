# Determinism gate for the serving tools: two runs with identical seed and
# configuration must write byte-identical report JSON (with -DTRACES=ON,
# byte-identical merged traces too), and a third run with the analysis
# stack armed must still exit 0 AND write the very same report bytes - the
# analyzers observe, they never perturb. Invoked by ctest as
#
#   cmake -DTOOL=<tool> -DOUT_DIR=<scratch dir> "-DARGS=<run arguments>"
#         "-DARMED=<extra arguments of the armed run>"
#         ["-DEACH=<variant> <variant> ..."] [-DTRACES=ON]
#         -P determinism.cmake
#
# EACH lists one extra argument per variant; the whole check then runs once
# per variant (the cluster gate sweeps --workers=1/2/4).

foreach(V TOOL OUT_DIR ARGS ARMED)
  if(NOT DEFINED ${V})
    message(FATAL_ERROR "determinism.cmake needs -D${V}=")
  endif()
endforeach()
separate_arguments(ARGS UNIX_COMMAND "${ARGS}")
separate_arguments(ARMED UNIX_COMMAND "${ARMED}")
separate_arguments(EACH UNIX_COMMAND "${EACH}")
get_filename_component(NAME "${TOOL}" NAME)
file(MAKE_DIRECTORY "${OUT_DIR}")

# check_variant(<file prefix> <extra arguments...>)
function(check_variant TAG)
  set(RUN_ARGS ${ARGS} ${ARGN})
  foreach(RUN a b c)
    set(OUT "--stats-json=${OUT_DIR}/${TAG}${RUN}.json")
    if(RUN STREQUAL "c")
      list(APPEND OUT ${ARMED})
    elseif(TRACES)
      list(APPEND OUT "--trace=${OUT_DIR}/${TAG}${RUN}.trace.json")
    endif()
    execute_process(COMMAND "${TOOL}" ${RUN_ARGS} ${OUT}
                    RESULT_VARIABLE RC OUTPUT_QUIET)
    if(NOT RC EQUAL 0)
      message(FATAL_ERROR
              "${NAME} ${RUN_ARGS} run '${RUN}' exited with ${RC}")
    endif()
  endforeach()
  set(SAME b.json c.json)
  if(TRACES)
    list(APPEND SAME b.trace.json)
  endif()
  foreach(FILE ${SAME})
    string(REGEX REPLACE "^[bc]" "a" BASE "${FILE}")
    execute_process(
      COMMAND "${CMAKE_COMMAND}" -E compare_files
              "${OUT_DIR}/${TAG}${BASE}" "${OUT_DIR}/${TAG}${FILE}"
      RESULT_VARIABLE DIFF)
    if(NOT DIFF EQUAL 0)
      message(FATAL_ERROR "same-seed ${NAME} runs differ: "
                          "${OUT_DIR}/${TAG}${BASE} vs ${TAG}${FILE}")
    endif()
  endforeach()
endfunction()

if(EACH)
  foreach(VARIANT ${EACH})
    string(MAKE_C_IDENTIFIER "${VARIANT}" TAG)
    check_variant("${TAG}-" ${VARIANT})
  endforeach()
else()
  check_variant("")
endif()
message(STATUS "same-seed ${NAME} reports are byte-identical "
               "(analyzers on and off)")
