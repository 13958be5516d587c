#ifndef COLOSSAL_NET_SOCKET_IO_H_
#define COLOSSAL_NET_SOCKET_IO_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace colossal {

// Blocking helpers for the client side of the counted wire protocol
// (colossal_loadgen and the socket tests). The server side is
// nonblocking and lives in net/tcp_server.h.

// Connects to host:port (getaddrinfo; numeric IPs and names both work).
// Returns the connected fd; the caller owns it (close(2) when done).
StatusOr<int> DialTcp(const std::string& host, int port);

// Writes all of `data`, retrying partial writes and EINTR. Uses
// MSG_NOSIGNAL so a peer reset surfaces as a Status, not SIGPIPE.
Status WriteAll(int fd, const std::string& data);

// Buffered reader over a blocking fd — a socket, or a pipe or file
// holding a `colossal_serve daemon` transcript: the line/exact-byte-count
// reads the response framing needs.
class SocketReader {
 public:
  explicit SocketReader(int fd) : fd_(fd) {}

  // Reads up to and including the next '\n'; returns the line without
  // the terminator (a trailing '\r' is kept — the protocol never emits
  // one). Fails kOutOfRange if the line exceeds `max_bytes`, kInternal
  // on EOF before a newline.
  StatusOr<std::string> ReadLine(size_t max_bytes = size_t{1} << 20);

  // Reads exactly `n` payload bytes.
  StatusOr<std::string> ReadExact(size_t n);

  // True once the peer has closed and the buffer is drained.
  bool AtEof();

 private:
  // Refills buffer_; returns false on EOF, a Status error on failure.
  StatusOr<bool> Fill();

  int fd_;
  std::string buffer_;
  size_t pos_ = 0;
  bool eof_ = false;
};

// One parsed response frame of the counted wire protocol ("<header>
// bytes=B\n" then exactly B payload bytes — see service/dispatch.h for
// the full grammar).
struct TcpFrame {
  std::string header;   // full status line (without the newline)
  std::string payload;  // exactly bytes=B bytes
  bool ok = false;      // header starts with "ok", "stats", "metrics",
                        // "recent" or "trace"
  std::string source;   // "mined" | "cache" | "coalesced" | "" (non-request)
  uint64_t request_id = 0;  // the header's id= token; 0 when absent
                            // (control words, pre-id servers)
};

// Reads and splits one frame, so every client parses the protocol
// identically.
// Fails kInternal on malformed framing or a connection closed mid-frame.
StatusOr<TcpFrame> ReadTcpFrame(SocketReader& reader);

}  // namespace colossal

#endif  // COLOSSAL_NET_SOCKET_IO_H_
