// acornd — the online multi-WLAN controller daemon.
//
// Usage:
//   acornd --unix /run/acorn.sock [--tcp PORT] [--state-dir DIR]
//          [--epoch-s SECONDS] [--hysteresis FACTOR] [--wal-flush-us N]
//          [--wal-mode shared|per-shard] [--wal-segment-bytes N]
//          [--workers M] [--follow ENDPOINT] [--log]
//
// Runs until SIGINT/SIGTERM or a Shutdown request arrives on the wire;
// either way every shard drains its queue and writes a final snapshot
// before the process exits.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "service/daemon.hpp"
#include "util/cli.hpp"

namespace {

acorn::service::Daemon* g_daemon = nullptr;

void on_signal(int) {
  if (g_daemon != nullptr) g_daemon->request_stop();
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--unix PATH] [--tcp PORT] [--state-dir DIR]\n"
               "          [--epoch-s SECONDS] [--hysteresis FACTOR]\n"
               "          [--wal-flush-us N] [--wal-mode shared|per-shard]\n"
               "          [--wal-segment-bytes N] [--workers M]\n"
               "          [--follow ENDPOINT] [--log]\n"
               "\n"
               "At least one of --unix / --tcp is required. A malformed or\n"
               "out-of-range numeric value exits with status 2.\n"
               "  --unix PATH        listen on a Unix domain socket\n"
               "  --tcp PORT         listen on 127.0.0.1:PORT (0 = ephemeral,\n"
               "                     chosen port is printed on startup)\n"
               "  --state-dir DIR    persist per-WLAN snapshots + event logs\n"
               "                     and recover them on startup\n"
               "  --epoch-s SECONDS  reconfiguration period (default 1.0;\n"
               "                     0 = only on force-reconfigure)\n"
               "  --hysteresis F     width-switch advantage factor "
               "(default 1.05)\n"
               "  --wal-flush-us N   WAL group-commit bound in microseconds:\n"
               "                     max time a record may sit unflushed "
               "under\n"
               "                     backlog (default 200; 0 = sync per "
               "event)\n"
               "  --wal-mode MODE    durability layout: 'shared' (default)\n"
               "                     coalesces every WLAN's records into\n"
               "                     shared seg_<n>.walseg files behind one\n"
               "                     fdatasync; 'per-shard' keeps a private\n"
               "                     wlan_<id>.wal per WLAN. Either mode\n"
               "                     recovers the other's files.\n"
               "  --wal-segment-bytes N  shared-mode segment rotation size\n"
               "                     (default 67108864)\n"
               "  --workers M        pooled shard workers shared by every\n"
               "                     WLAN, 1..1024 (default: hardware "
               "threads)\n"
               "  --follow ENDPOINT  run as a warm standby replicating the\n"
               "                     leader at unix:/path or host:port\n"
               "  --log              per-epoch and periodic stats on stderr\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  acorn::service::DaemonConfig config;
  config.log = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0],
                     arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    const auto flag = [&]<class T>(T lo, T hi) {
      return acorn::util::parse_flag(argv[0], arg.c_str(), value(), lo, hi);
    };
    if (arg == "--unix") {
      config.unix_path = value();
    } else if (arg == "--tcp") {
      config.tcp = true;
      config.tcp_port = flag(std::uint16_t{0}, std::uint16_t{65535});
    } else if (arg == "--state-dir") {
      config.state_dir = value();
    } else if (arg == "--epoch-s") {
      config.epoch_s = flag(0.0, 1e6);
    } else if (arg == "--hysteresis") {
      config.width_hysteresis = flag(1.0, 100.0);
    } else if (arg == "--wal-flush-us") {
      config.wal_flush_us = flag(std::uint32_t{0}, std::uint32_t{1000000});
    } else if (arg == "--wal-mode") {
      const std::string mode = value();
      if (mode == "shared") {
        config.wal_mode = acorn::service::WalMode::kShared;
      } else if (mode == "per-shard") {
        config.wal_mode = acorn::service::WalMode::kPerShard;
      } else {
        std::fprintf(stderr, "%s: --wal-mode must be shared or per-shard\n",
                     argv[0]);
        return 2;
      }
    } else if (arg == "--wal-segment-bytes") {
      config.wal_segment_bytes = flag(std::uint64_t{1}, UINT64_MAX);
    } else if (arg == "--workers") {
      config.workers = flag(1, acorn::service::kMaxWorkers);
    } else if (arg == "--follow") {
      config.follow = value();
    } else if (arg == "--log") {
      config.log = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0]);
    } else {
      std::fprintf(stderr, "%s: unknown option %s\n", argv[0], arg.c_str());
      return usage(argv[0]);
    }
  }
  if (!config.tcp && config.unix_path.empty()) return usage(argv[0]);

  acorn::service::Daemon daemon(config);
  try {
    daemon.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "acornd: startup failed: %s\n", e.what());
    return 1;
  }

  g_daemon = &daemon;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = on_signal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  signal(SIGPIPE, SIG_IGN);

  if (config.tcp) {
    std::fprintf(stderr, "acornd: listening on 127.0.0.1:%d\n",
                 daemon.tcp_port());
  }
  if (!config.unix_path.empty()) {
    std::fprintf(stderr, "acornd: listening on %s\n",
                 config.unix_path.c_str());
  }

  daemon.wait();
  g_daemon = nullptr;
  return 0;
}
