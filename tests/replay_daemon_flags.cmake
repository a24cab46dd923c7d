# replay_daemon must reject malformed or out-of-range numeric flags with
# exit status 2 and a message naming the flag, before its in-process
# daemon binds a socket: no /tmp/acorn_replay_<pid>.sock may be left.
#
#   cmake -DREPLAY_DAEMON=path/to/replay_daemon -P replay_daemon_flags.cmake
if(NOT REPLAY_DAEMON)
  message(FATAL_ERROR "pass -DREPLAY_DAEMON=<path to replay_daemon>")
endif()

# Flat list of (flag, value, expected stderr fragment) triples.
set(cases
  "--clients;abc;bad value for --clients: 'abc'"
  "--aps;x;bad value for --aps: 'x'"
  "--wlans;0;bad value for --wlans: '0'"
  "--horizon;-1;bad value for --horizon: '-1'"
  "--rate;0;bad value for --rate: '0'"
  "--seed;-3;bad value for --seed: '-3'"
  "--epoch-every;1.5x;bad value for --epoch-every: '1.5x'"
  "--workers;0;bad value for --workers: '0'")
file(GLOB before /tmp/acorn_replay_*.sock)
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
    COMMAND "${REPLAY_DAEMON}" ${flag} ${value}
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
  file(GLOB after /tmp/acorn_replay_*.sock)
  if(after)
    list(REMOVE_ITEM after ${before})
  endif()
  if(after)
    message(FATAL_ERROR "${flag} ${value}: left socket file(s) ${after}")
  endif()
  message(STATUS "${flag} ${value}: rejected")
endwhile()
