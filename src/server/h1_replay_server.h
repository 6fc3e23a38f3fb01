// HTTP/1.1 replay server session — the baseline protocol arm. One session
// per TCP connection; requests answered strictly in order from the same
// record store the H2 server uses. No multiplexing, no push: the protocol
// the paper's introduction describes as "designed nearly two decades ago".
#pragma once

#include <functional>
#include <memory>

#include "http1/connection.h"
#include "replay/record.h"
#include "sim/time.h"
#include "util/rng.h"

namespace h2push::sim {
class Simulator;
}

namespace h2push::server {

class H1ReplayServer {
 public:
  struct Config {
    const replay::RecordStore* store = nullptr;
    sim::Time think_time_mean = 0;
  };

  /// `sim` schedules server think time; it may be null when
  /// think_time_mean is 0 (the live daemon), and a positive think time
  /// without one throws std::invalid_argument.
  H1ReplayServer(sim::Simulator* sim, Config config, util::Rng rng);

  http1::ServerConnection& connection() { return *conn_; }
  void set_write_ready(std::function<void()> cb) {
    write_ready_ = std::move(cb);
  }

 private:
  void on_request(const http1::MessageParser::Message& request);

  sim::Simulator* sim_;
  Config config_;
  util::Rng rng_;
  std::unique_ptr<http1::ServerConnection> conn_;
  std::function<void()> write_ready_;
};

}  // namespace h2push::server
