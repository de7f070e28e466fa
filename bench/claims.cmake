# Runs one bench binary and checks the claims line it prints last against
# the digest pinned for it in tests/golden/claims.txt.
#   cmake -DBENCH=<path to bench_x> -DGOLDEN=<claims.txt> -P claims.cmake
# Fails when the bench exits non-zero, prints no claims line, or prints a
# digest other than the pinned one. A change that moves exact figures on
# purpose copies the new digest from the message into the golden file.
get_filename_component(name "${BENCH}" NAME)
execute_process(COMMAND "${BENCH}" RESULT_VARIABLE rc OUTPUT_VARIABLE out)
message("${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${name} exited with ${rc}")
endif()
if(NOT out MATCHES "claims ${name} fnv1a64=(0x[0-9a-f]+) exact=([0-9]+)")
  message(FATAL_ERROR "${name} printed no claims line")
endif()
set(digest "${CMAKE_MATCH_1}")
set(exact "${CMAKE_MATCH_2}")
file(STRINGS "${GOLDEN}" pinned REGEX "^${name} ")
if(NOT pinned STREQUAL "${name} ${digest}")
  message(FATAL_ERROR "claims ${name}: new digest ${digest} "
    "(${exact} exact figures); pinned: '${pinned}' in ${GOLDEN}")
endif()
