#include "net/socket_io.h"

#include <netdb.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace colossal {

StatusOr<int> DialTcp(const std::string& host, int port) {
  if (port < 1 || port > 65535) {
    return Status::InvalidArgument("port out of range: " +
                                   std::to_string(port));
  }
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* results = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                               &hints, &results);
  if (rc != 0) {
    return Status::NotFound("cannot resolve " + host + ": " +
                            ::gai_strerror(rc));
  }
  Status last = Status::NotFound("no usable address for " + host);
  for (struct addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Status::Internal(std::string("socket: ") + std::strerror(errno));
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      ::freeaddrinfo(results);
      return fd;
    }
    last = Status::Internal("connect " + host + ":" + std::to_string(port) +
                            ": " + std::strerror(errno));
    ::close(fd);
  }
  ::freeaddrinfo(results);
  return last;
}

Status WriteAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

StatusOr<bool> SocketReader::Fill() {
  if (eof_) return false;
  char chunk[4096];
  while (true) {
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("read: ") + std::strerror(errno));
    }
    if (n == 0) {
      eof_ = true;
      return false;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }
}

StatusOr<std::string> SocketReader::ReadLine(size_t max_bytes) {
  while (true) {
    const size_t newline = buffer_.find('\n', pos_);
    if (newline != std::string::npos) {
      if (newline - pos_ > max_bytes) {
        return Status::OutOfRange("response line exceeds " +
                                  std::to_string(max_bytes) + " bytes");
      }
      std::string line = buffer_.substr(pos_, newline - pos_);
      pos_ = newline + 1;
      if (pos_ == buffer_.size()) {
        buffer_.clear();
        pos_ = 0;
      }
      return line;
    }
    if (buffer_.size() - pos_ > max_bytes) {
      return Status::OutOfRange("response line exceeds " +
                                std::to_string(max_bytes) + " bytes");
    }
    StatusOr<bool> more = Fill();
    if (!more.ok()) return more.status();
    if (!*more) {
      return Status::Internal("connection closed mid-line");
    }
  }
}

StatusOr<std::string> SocketReader::ReadExact(size_t n) {
  while (buffer_.size() - pos_ < n) {
    StatusOr<bool> more = Fill();
    if (!more.ok()) return more.status();
    if (!*more) {
      return Status::Internal(
          "connection closed mid-payload (" +
          std::to_string(buffer_.size() - pos_) + " of " + std::to_string(n) +
          " bytes)");
    }
  }
  std::string payload = buffer_.substr(pos_, n);
  pos_ += n;
  if (pos_ == buffer_.size()) {
    buffer_.clear();
    pos_ = 0;
  }
  return payload;
}

StatusOr<TcpFrame> ReadTcpFrame(SocketReader& reader) {
  StatusOr<std::string> header = reader.ReadLine();
  if (!header.ok()) return header.status();
  TcpFrame frame;
  frame.header = *std::move(header);

  const size_t bytes_pos = frame.header.rfind(" bytes=");
  if (bytes_pos == std::string::npos) {
    return Status::Internal("response missing bytes= framing: '" +
                            frame.header + "'");
  }
  errno = 0;
  char* end = nullptr;
  const long long payload_bytes =
      std::strtoll(frame.header.c_str() + bytes_pos + 7, &end, 10);
  if (end == nullptr || *end != '\0' || errno != 0 || payload_bytes < 0) {
    return Status::Internal("bad bytes= count in '" + frame.header + "'");
  }

  frame.ok = frame.header.rfind("ok", 0) == 0 ||
             frame.header.rfind("stats", 0) == 0 ||
             frame.header.rfind("metrics", 0) == 0 ||
             frame.header.rfind("recent", 0) == 0 ||
             frame.header.rfind("trace", 0) == 0;
  const size_t source_pos = frame.header.find("source=");
  if (source_pos != std::string::npos) {
    const size_t value = source_pos + 7;
    frame.source =
        frame.header.substr(value, frame.header.find(' ', value) - value);
  }
  const size_t id_pos = frame.header.find(" id=");
  if (id_pos != std::string::npos) {
    errno = 0;
    char* id_end = nullptr;
    const unsigned long long id =
        std::strtoull(frame.header.c_str() + id_pos + 4, &id_end, 10);
    if (id_end != nullptr && (*id_end == '\0' || *id_end == ' ') &&
        errno == 0) {
      frame.request_id = id;
    }
  }

  StatusOr<std::string> payload =
      reader.ReadExact(static_cast<size_t>(payload_bytes));
  if (!payload.ok()) return payload.status();
  frame.payload = *std::move(payload);
  return frame;
}

bool SocketReader::AtEof() {
  if (pos_ < buffer_.size()) return false;
  if (!eof_) {
    StatusOr<bool> more = Fill();
    if (more.ok() && *more) return false;
  }
  return eof_;
}

}  // namespace colossal
