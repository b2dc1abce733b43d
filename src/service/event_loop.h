// The non-blocking epoll event loop behind the socket frontends (DESIGN.md §11).
//
// One thread owns every descriptor: listeners, the signal self-pipe, a
// completion eventfd, and all client connections (edge-triggered, non-blocking).
// It performs incremental NDJSON framing into per-connection read buffers,
// admission-checks each complete line (src/service/admission.h), and submits
// admitted lines to a ThreadPool whose depth is bounded by the admission caps —
// that pool is the only place Service::HandleLine runs. Responses are
// sequenced per connection: every parsed line gets a slot in arrival order and
// replies (including shed-rejection envelopes) are flushed strictly in that
// order, so pipelined clients can correlate by position even without ids.
//
// Callers (src/service/socket_server.cc) create the listening sockets; the
// loop takes ownership of the fds. Raw socket/accept/epoll calls are confined
// to these two modules (tools/lint.py rule raw-socket).
#ifndef SRC_SERVICE_EVENT_LOOP_H_
#define SRC_SERVICE_EVENT_LOOP_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "src/service/service.h"
#include "src/service/socket_server.h"

namespace concord {

struct EventLoopListener {
  int fd = -1;              // Listening, non-blocking; the loop takes ownership.
  bool tcp = false;         // Peer identity scheme: "tcp:<ip>" vs "unix:<pid>".
  std::string unlink_path;  // Unix socket path, removed when accepting stops.
};

// Serves until the service requests shutdown (a `shutdown` verb, an external
// RequestShutdown, or a byte on `signal_wake_fd` from the signal handler) and
// the drain completes. Closes every listener and connection before returning.
// Returns 0 on clean shutdown, 2 on a fatal epoll/accept error.
int RunEventLoop(Service& service, const SocketServerOptions& options,
                 std::vector<EventLoopListener> listeners, int signal_wake_fd,
                 std::ostream& err);

}  // namespace concord

#endif  // SRC_SERVICE_EVENT_LOOP_H_
