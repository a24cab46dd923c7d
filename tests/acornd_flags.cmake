# acornd must reject malformed or out-of-range numeric flags with exit
# status 2 and a message naming the flag, before it binds anything.
#
#   cmake -DACORND=path/to/acornd -P acornd_flags.cmake
if(NOT ACORND)
  message(FATAL_ERROR "pass -DACORND=<path to acornd>")
endif()

# Flat list of (flag, value, expected stderr fragment) triples.
set(cases
  "--workers;abc;bad value for --workers: 'abc'"
  "--workers;0;bad value for --workers: '0'"
  "--tcp;70000;bad value for --tcp: '70000'"
  "--wal-flush-us;-1;bad value for --wal-flush-us: '-1'"
  "--epoch-s;x;bad value for --epoch-s: 'x'"
  "--hysteresis;1.5x;bad value for --hysteresis: '1.5x'"
  "--wal-segment-bytes;0;bad value for --wal-segment-bytes: '0'")
set(i 0)
list(LENGTH cases n)
while(i LESS n)
  list(GET cases ${i} flag)
  math(EXPR i "${i} + 1")
  list(GET cases ${i} value)
  math(EXPR i "${i} + 1")
  list(GET cases ${i} expected)
  math(EXPR i "${i} + 1")
  execute_process(
    COMMAND "${ACORND}" --unix /nonexistent/acornd_flags.sock ${flag} ${value}
    RESULT_VARIABLE rc
    ERROR_VARIABLE err
    OUTPUT_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${flag} ${value}: exit status ${rc}, expected 2\n${err}")
  endif()
  string(FIND "${err}" "${expected}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${flag} ${value}: stderr lacks \"${expected}\":\n${err}")
  endif()
  message(STATUS "${flag} ${value}: rejected")
endwhile()
