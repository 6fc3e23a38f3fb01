#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <memory>

#include "h2/connection.h"
#include "http/message.h"
#include "util/posix.h"

namespace h2bench {
namespace {

namespace h2 = h2push::h2;
namespace http = h2push::http;
namespace posix = h2push::util::posix;

constexpr std::size_t kReadChunk = 64 * 1024;
constexpr std::size_t kWriteChunk = 256 * 1024;
/// Reads per readiness event: a connection streaming a large body must not
/// hold the generator past the next due time (epoll is level-triggered).
constexpr int kReadsPerEvent = 4;

int connect_loopback(std::uint16_t port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  sockaddr_in sa = {};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (posix::connect_retry(fd, reinterpret_cast<sockaddr*>(&sa),
                           sizeof(sa)) < 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    posix::close_retry(fd);
    return -1;
  }
  posix::set_nonblocking(fd);
  posix::set_tcp_nodelay(fd);
  return fd;
}

class Client {
 public:
  explicit Client(const LoadPlan& plan) : plan_(plan) {}
  ~Client() {
    for (auto& conn : conns_) {
      if (conn && conn->fd >= 0) posix::close_retry(conn->fd);
    }
    if (epfd_ >= 0) posix::close_retry(epfd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  LoadStats run();

 private:
  struct Request {
    std::size_t target = 0;
    std::size_t conn = 0;
    std::uint64_t due_ns = 0;   ///< open loop: schedule time
    std::uint64_t sent_ns = 0;
    std::uint64_t bytes = 0;
    std::uint32_t pushes_open = 0;
    bool main_done = false;
    bool finished = false;
  };

  struct Conn {
    int fd = -1;
    std::unique_ptr<h2::Connection> h2;
    std::vector<std::uint8_t> out;
    std::size_t out_offset = 0;
    bool want_out = false;  ///< EPOLLOUT armed
    bool dead = false;
    bool draining = false;  ///< request cap reached; replace once idle
    std::size_t requests = 0;
    bool errored = false;   ///< codec reported a connection error
    std::map<std::uint32_t, std::size_t> streams;  ///< stream → request
    std::size_t in_flight = 0;
  };

  bool open_connections();
  bool connect_slot(std::size_t index);
  void replace(std::size_t index);
  void submit(std::size_t conn_index, std::uint64_t due_ns);
  void complete(Request& request);
  void flush(std::size_t conn_index);
  void read(std::size_t conn_index);
  void kill(std::size_t conn_index);
  std::size_t pick_connection() const;
  bool all_dead() const;

  const LoadPlan& plan_;
  LoadStats stats_;
  int epfd_ = -1;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<Request> requests_;
  std::size_t next_target_ = 0;
  std::size_t outstanding_ = 0;
  bool submitting_ = true;
  std::uint64_t start_ns_ = 0;
  std::uint64_t end_ns_ = 0;
  std::vector<std::uint64_t> window_done_;
  std::vector<std::uint64_t> window_bytes_;
  std::vector<std::uint8_t> read_buf_ = std::vector<std::uint8_t>(kReadChunk);
};

bool Client::open_connections() {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) {
    stats_.error = std::string("epoll_create1: ") + std::strerror(errno);
    return false;
  }
  conns_.resize(static_cast<std::size_t>(plan_.connections));
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    if (!connect_slot(c)) return false;
  }
  return true;
}

bool Client::connect_slot(std::size_t index) {
  auto conn = std::make_unique<Conn>();
  conn->fd = connect_loopback(plan_.port, &stats_.error);
  if (conn->fd < 0) {
    conn->dead = true;
    conns_[index] = std::move(conn);
    return false;
  }
  h2::Connection::Config config;
  config.role = h2::Role::kClient;
  config.enable_push = plan_.enable_push;
  // Wide windows, as fetch_urls and the simulator's browser announce.
  config.initial_window = 16 * 1024 * 1024;
  config.connection_window_bonus = 16 * 1024 * 1024;
  h2::Connection::Callbacks callbacks;
  callbacks.on_data = [this, index](std::uint32_t stream,
                                    std::span<const std::uint8_t> data,
                                    bool) {
    auto& streams = conns_[index]->streams;
    const auto it = streams.find(stream);
    if (it != streams.end()) requests_[it->second].bytes += data.size();
  };
  callbacks.on_push_promise = [this, index](std::uint32_t parent,
                                            std::uint32_t promised,
                                            http::HeaderBlock) {
    ++stats_.push_promises;
    auto& streams = conns_[index]->streams;
    const auto it = streams.find(parent);
    if (it == streams.end()) return;
    streams[promised] = it->second;
    ++requests_[it->second].pushes_open;
  };
  callbacks.on_stream_closed = [this, index](std::uint32_t stream) {
    auto& streams = conns_[index]->streams;
    const auto it = streams.find(stream);
    if (it == streams.end()) return;
    Request& request = requests_[it->second];
    streams.erase(it);
    if (stream % 2 == 1) {
      request.main_done = true;
    } else if (request.pushes_open > 0) {
      --request.pushes_open;
    }
    if (request.main_done && request.pushes_open == 0) complete(request);
  };
  callbacks.on_rst = [this, index](std::uint32_t stream, h2::ErrorCode) {
    // A reset stream never delivers its bytes; completion flags it.
    auto& streams = conns_[index]->streams;
    const auto it = streams.find(stream);
    if (it != streams.end()) requests_[it->second].bytes = ~0ULL;
  };
  callbacks.on_connection_error = [this, index](const std::string&) {
    conns_[index]->errored = true;
  };
  conn->h2 = std::make_unique<h2::Connection>(config, std::move(callbacks));
  conn->h2->start();
  epoll_event ev = {};
  ev.events = EPOLLIN;
  ev.data.u64 = index;
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, conn->fd, &ev) < 0) {
    stats_.error = std::string("epoll_ctl: ") + std::strerror(errno);
    posix::close_retry(conn->fd);
    conn->fd = -1;
    conn->dead = true;
    conns_[index] = std::move(conn);
    return false;
  }
  conns_[index] = std::move(conn);
  return true;
}

void Client::replace(std::size_t index) {
  Conn& old = *conns_[index];
  ::epoll_ctl(epfd_, EPOLL_CTL_DEL, old.fd, nullptr);
  posix::close_retry(old.fd);
  old.fd = -1;
  connect_slot(index);  // a failed reconnect leaves a dead slot + error
}

void Client::submit(std::size_t conn_index, std::uint64_t due_ns) {
  Conn& conn = *conns_[conn_index];
  const Target& target = (*plan_.targets)[next_target_];
  next_target_ = (next_target_ + 1) % plan_.targets->size();
  http::Request req;
  req.url = http::Url{"https", target.host, 443, target.path};
  Request request;
  request.target = static_cast<std::size_t>(&target - plan_.targets->data());
  request.conn = conn_index;
  request.sent_ns = now_ns();
  request.due_ns = due_ns == 0 ? request.sent_ns : due_ns;
  const std::uint32_t stream = conn.h2->submit_request(req.to_h2_headers());
  conn.streams[stream] = requests_.size();
  requests_.push_back(request);
  ++conn.in_flight;
  ++outstanding_;
  const auto cap = static_cast<std::size_t>(plan_.requests_per_connection);
  if (cap > 0 && ++conn.requests >= cap) {
    conn.draining = true;
  }
  ++stats_.attempted;
  if (plan_.schedule != nullptr) {
    stats_.lag_ms.push_back(
        static_cast<double>(request.sent_ns - request.due_ns) / 1e6);
  }
}

void Client::complete(Request& request) {
  if (request.finished) return;
  request.finished = true;
  --outstanding_;
  Conn& conn = *conns_[request.conn];
  --conn.in_flight;
  const std::uint64_t done = now_ns();
  const Target& target = (*plan_.targets)[request.target];
  if (request.bytes != target.body_bytes) {
    ++stats_.failed;
  } else {
    ++stats_.completed;
    stats_.body_bytes += request.bytes;
    stats_.latency_ms.push_back(static_cast<double>(done - request.due_ns) /
                                1e6);
    stats_.latency_target.push_back(request.target);
    if (done < end_ns_) {
      const auto window = static_cast<std::size_t>(
          static_cast<double>(done - start_ns_) / 1e9 / plan_.window_s);
      if (window < window_done_.size()) {
        ++window_done_[window];
        window_bytes_[window] += request.bytes;
      }
    }
    if (plan_.spans != nullptr) {
      plan_.spans->add("client.request", request.due_ns, done,
                       plan_.parent_span,
                       static_cast<std::uint64_t>(&request - requests_.data()));
    }
  }
  if (plan_.schedule == nullptr && submitting_ && !conn.dead &&
      !conn.draining) {
    submit(request.conn, 0);
  }
}

void Client::flush(std::size_t conn_index) {
  Conn& conn = *conns_[conn_index];
  while (!conn.dead) {
    if (conn.out_offset == conn.out.size()) {
      conn.out.clear();
      conn.out_offset = 0;
      if (!conn.h2->want_write()) break;
      conn.h2->produce_into(conn.out, kWriteChunk);
      if (conn.out.empty()) break;
    }
    const ssize_t n =
        posix::send_retry(conn.fd, conn.out.data() + conn.out_offset,
                          conn.out.size() - conn.out_offset);
    if (n > 0) {
      conn.out_offset += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && posix::would_block(errno)) {
      if (!conn.want_out) {
        epoll_event ev = {};
        ev.events = EPOLLIN | EPOLLOUT;
        ev.data.u64 = conn_index;
        ::epoll_ctl(epfd_, EPOLL_CTL_MOD, conn.fd, &ev);
        conn.want_out = true;
      }
      return;
    }
    kill(conn_index);
    return;
  }
  if (conn.want_out && !conn.dead) {
    epoll_event ev = {};
    ev.events = EPOLLIN;
    ev.data.u64 = conn_index;
    ::epoll_ctl(epfd_, EPOLL_CTL_MOD, conn.fd, &ev);
    conn.want_out = false;
  }
}

void Client::read(std::size_t conn_index) {
  Conn& conn = *conns_[conn_index];
  for (int reads = 0; reads < kReadsPerEvent && !conn.dead; ++reads) {
    const ssize_t n = posix::read_retry(conn.fd, read_buf_.data(),
                                        read_buf_.size());
    if (n > 0) {
      conn.h2->receive({read_buf_.data(), static_cast<std::size_t>(n)});
      if (conn.errored) {
        kill(conn_index);
        return;
      }
      continue;
    }
    if (n < 0 && posix::would_block(errno)) break;
    kill(conn_index);  // EOF or hard error
    return;
  }
  // A drained connection is replaced outside its codec's callbacks.
  if (conn.draining && conn.in_flight == 0) {
    replace(conn_index);
    if (conns_[conn_index]->dead) return;
    if (plan_.schedule == nullptr && submitting_) {
      for (int d = 0; d < plan_.depth; ++d) submit(conn_index, 0);
    }
  }
  flush(conn_index);
}

void Client::kill(std::size_t conn_index) {
  Conn& conn = *conns_[conn_index];
  if (conn.dead) return;
  conn.dead = true;
  ::epoll_ctl(epfd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  posix::close_retry(conn.fd);
  conn.fd = -1;
  // Every request still in flight on the connection is lost.
  for (auto& request : requests_) {
    if (!request.finished && request.conn == conn_index) {
      request.finished = true;
      --outstanding_;
      ++stats_.failed;
    }
  }
  conn.in_flight = 0;
  conn.streams.clear();
}

std::size_t Client::pick_connection() const {
  std::size_t best = conns_.size();
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (conns_[i]->dead || conns_[i]->draining) continue;
    if (best == conns_.size() ||
        conns_[i]->in_flight < conns_[best]->in_flight) {
      best = i;
    }
  }
  return best;
}

bool Client::all_dead() const {
  return std::all_of(conns_.begin(), conns_.end(),
                     [](const auto& conn) { return conn->dead; });
}

LoadStats Client::run() {
  posix::ignore_sigpipe();
  if (plan_.targets == nullptr || plan_.targets->empty() ||
      plan_.connections <= 0) {
    stats_.error = "empty load plan";
    return stats_;
  }
  if (!open_connections()) return stats_;

  const bool open_loop = plan_.schedule != nullptr;
  const double duration_s =
      open_loop && !plan_.schedule->empty()
          ? std::max(plan_.duration_s,
                     static_cast<double>(plan_.schedule->back()) / 1e9)
          : plan_.duration_s;
  const auto windows = static_cast<std::size_t>(duration_s / plan_.window_s);
  window_done_.assign(windows, 0);
  window_bytes_.assign(windows, 0);
  requests_.reserve(open_loop ? plan_.schedule->size() : 1u << 16);

  start_ns_ = now_ns() - (open_loop ? plan_.stall_ns : 0);
  end_ns_ = start_ns_ + static_cast<std::uint64_t>(duration_s * 1e9);
  const std::uint64_t hard_end =
      end_ns_ + static_cast<std::uint64_t>(plan_.grace_s * 1e9);
  std::size_t next_due = 0;

  if (!open_loop) {
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      for (int d = 0; d < plan_.depth; ++d) submit(c, 0);
    }
  }
  for (std::size_t c = 0; c < conns_.size(); ++c) flush(c);

  epoll_event events[64];
  while (true) {
    std::uint64_t now = now_ns();
    if (open_loop) {
      while (next_due < plan_.schedule->size() &&
             start_ns_ + (*plan_.schedule)[next_due] <= now) {
        const std::size_t c = pick_connection();
        if (c == conns_.size()) break;
        submit(c, start_ns_ + (*plan_.schedule)[next_due]);
        flush(c);
        ++next_due;
      }
      if (next_due >= plan_.schedule->size()) submitting_ = false;
    } else if (now >= end_ns_) {
      submitting_ = false;
    }
    if ((!submitting_ && outstanding_ == 0) || now >= hard_end || all_dead()) {
      break;
    }
    // Sleep until the next arrival (open loop) or the end of the phase.
    std::uint64_t wake = submitting_ ? end_ns_ : hard_end;
    if (open_loop && next_due < plan_.schedule->size()) {
      wake = start_ns_ + (*plan_.schedule)[next_due];
    }
    const std::uint64_t wait = wake > now ? wake - now : 0;
    timespec timeout = {static_cast<time_t>(wait / 1000000000ULL),
                        static_cast<long>(wait % 1000000000ULL)};
    int n = 0;
    do {
      n = ::epoll_pwait2(epfd_, events, 64, &timeout, nullptr);
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      stats_.error = std::string("epoll_pwait2: ") + std::strerror(errno);
      break;
    }
    for (int i = 0; i < n; ++i) {
      const auto index = static_cast<std::size_t>(events[i].data.u64);
      if (conns_[index]->dead) continue;
      if (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) read(index);
      if (!conns_[index]->dead && (events[i].events & EPOLLOUT)) flush(index);
    }
  }
  // Whatever is still outstanding at the hard end is lost.
  for (auto& request : requests_) {
    if (!request.finished) {
      request.finished = true;
      ++stats_.failed;
    }
  }
  stats_.elapsed_s = static_cast<double>(now_ns() - start_ns_) / 1e9;
  for (std::size_t w = 0; w < windows; ++w) {
    stats_.window_rate.push_back(static_cast<double>(window_done_[w]) /
                                 plan_.window_s);
    stats_.window_mb_s.push_back(static_cast<double>(window_bytes_[w]) /
                                 plan_.window_s / 1e6);
  }
  return stats_;
}

}  // namespace

LoadStats run_client(const LoadPlan& plan) {
  Client client(plan);
  return client.run();
}

}  // namespace h2bench
