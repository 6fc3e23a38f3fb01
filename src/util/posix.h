// Thin POSIX syscall wrappers shared by the live serving layer (src/net/)
// and its binaries.
//
// Two classes of portability hazard are handled once, here, instead of at
// every call site:
//   - SIGPIPE: a write() to a socket whose peer has gone away kills the
//     process by default. Long-running daemons and load generators must
//     ignore the signal and handle EPIPE as an ordinary error.
//   - EINTR: any slow syscall may be interrupted by a signal (profilers,
//     SIGCHLD, sanitizer internals). Every wrapper retries until the call
//     completes or fails with a real error.
// All wrappers return the raw syscall result (-1 + errno on failure); none
// throws. They never retry on EAGAIN/EWOULDBLOCK — nonblocking-socket
// readiness is the event loop's job, not the wrapper's.
#pragma once

#include <sys/socket.h>
#include <sys/types.h>

#include <cstddef>

struct epoll_event;
struct pollfd;

namespace h2push::util::posix {

/// Ignore SIGPIPE process-wide (idempotent, thread-safe). Call early in
/// main() of anything that writes to sockets.
void ignore_sigpipe();

/// True if `errno_value` is the nonblocking "try again later" case.
bool would_block(int errno_value) noexcept;

// --- EINTR-retrying syscall wrappers ---
ssize_t read_retry(int fd, void* buf, std::size_t count) noexcept;
ssize_t write_retry(int fd, const void* buf, std::size_t count) noexcept;
/// send() with MSG_NOSIGNAL folded in: even if ignore_sigpipe() was not
/// called, a peer reset surfaces as EPIPE, never as a signal.
ssize_t send_retry(int fd, const void* buf, std::size_t count,
                   int flags = 0) noexcept;
int accept_retry(int fd, sockaddr* addr, socklen_t* addrlen,
                 int flags) noexcept;
int connect_retry(int fd, const sockaddr* addr, socklen_t addrlen) noexcept;
int epoll_wait_retry(int epfd, struct epoll_event* events, int max_events,
                     int timeout_ms) noexcept;
int poll_retry(struct pollfd* fds, unsigned long nfds,
               int timeout_ms) noexcept;
/// close() is NOT retried on EINTR: on Linux the descriptor is released
/// even when the call is interrupted, and retrying can close a descriptor
/// that another thread has since reused. EINTR is swallowed instead.
int close_retry(int fd) noexcept;

// --- descriptor flags ---
int set_nonblocking(int fd) noexcept;  ///< O_NONBLOCK; 0 on success
int set_cloexec(int fd) noexcept;      ///< FD_CLOEXEC; 0 on success
/// TCP_NODELAY — the serving path writes coalesced frame batches, so
/// Nagle only adds latency. 0 on success.
int set_tcp_nodelay(int fd) noexcept;

}  // namespace h2push::util::posix
