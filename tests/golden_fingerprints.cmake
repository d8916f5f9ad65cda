# Runs every bench named in the golden file with --smoke and compares the
# fingerprints it prints (each quoted 16-hex-digit value of its JSON on
# stdout, in print order) against the file. Fails on a non-zero exit, a
# changed, missing or extra fingerprint.
#
#   cmake -DGOLDEN=tests/golden_fingerprints.txt -DBENCH_DIR=build \
#         -P tests/golden_fingerprints.cmake
cmake_minimum_required(VERSION 3.20)

string(REPEAT "[0-9a-f]" 16 hex16)
file(STRINGS "${GOLDEN}" lines REGEX "^[^#]")
set(benches "")
set(expected "")
foreach(line IN LISTS lines)
  if(NOT line MATCHES "^([a-z_0-9]+) (${hex16})( |$)")
    message(FATAL_ERROR "golden file: malformed line '${line}'")
  endif()
  list(APPEND benches "${CMAKE_MATCH_1}")
  list(APPEND expected "${CMAKE_MATCH_1} ${CMAKE_MATCH_2}")
endforeach()
list(REMOVE_DUPLICATES benches)

set(actual "")
foreach(bench IN LISTS benches)
  execute_process(COMMAND "${BENCH_DIR}/${bench}" --smoke
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bench} --smoke failed (${rc}):\n${err}")
  endif()
  string(REGEX MATCHALL "\"${hex16}\"" printed "${out}")
  foreach(fp IN LISTS printed)
    string(REPLACE "\"" "" fp "${fp}")
    list(APPEND actual "${bench} ${fp}")
  endforeach()
endforeach()

if(NOT expected STREQUAL actual)
  list(LENGTH expected nExpected)
  list(LENGTH actual nActual)
  set(report "")
  set(i 0)
  while(i LESS nExpected OR i LESS nActual)
    set(want "(none)")
    set(got "(none)")
    if(i LESS nExpected)
      list(GET expected ${i} want)
    endif()
    if(i LESS nActual)
      list(GET actual ${i} got)
    endif()
    if(NOT want STREQUAL got)
      string(APPEND report "  #${i}: golden '${want}', printed '${got}'\n")
    endif()
    math(EXPR i "${i} + 1")
  endwhile()
  message(FATAL_ERROR "fingerprints differ from ${GOLDEN}:\n${report}")
endif()
list(LENGTH actual n)
message(STATUS "golden_fingerprints: ${n} fingerprints match")
