#include "serve/socket_server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "serve/daemon.h"
#include "serve/protocol.h"
#include "util/error.h"
#include "util/table.h"

namespace grophecy::serve {

namespace {

/// Writes the whole buffer, tolerating short writes and EINTR. Returns
/// false once the peer is gone. MSG_NOSIGNAL: a dead peer is a return
/// code here, never a process-wide SIGPIPE.
bool send_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += static_cast<std::size_t>(n);
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

sockaddr_un make_address(const std::string& path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (path.size() >= sizeof(address.sun_path))
    throw UsageError(util::strfmt("socket path too long (%zu bytes, max %zu)",
                                  path.size(),
                                  sizeof(address.sun_path) - 1));
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  return address;
}

}  // namespace

/// One live client connection. Outlives its fd: reply callbacks hold a
/// shared_ptr to it, and `closed` (under `write_mutex`) makes a late
/// reply a no-op instead of a write to a recycled descriptor. Only the
/// reader thread closes the fd, on exit; everyone else (stop(), a failed
/// write) merely shuts it down, which unblocks the reader's recv without
/// freeing the descriptor under it.
struct SocketServer::Connection {
  int fd = -1;
  std::mutex write_mutex;
  bool closed = false;

  void write_line(const std::string& line) {
    std::lock_guard<std::mutex> lock(write_mutex);
    if (closed) return;
    std::string framed = line;
    framed.push_back('\n');
    if (!send_all(fd, framed.data(), framed.size()))
      ::shutdown(fd, SHUT_RDWR);
  }

  void shutdown() {
    std::lock_guard<std::mutex> lock(write_mutex);
    if (!closed) ::shutdown(fd, SHUT_RDWR);
  }

  void close() {
    std::lock_guard<std::mutex> lock(write_mutex);
    closed = true;
    ::close(fd);
  }
};

SocketServer::SocketServer(Daemon& daemon, SocketServerOptions options)
    : daemon_(daemon), options_(std::move(options)) {}

SocketServer::~SocketServer() { stop(); }

void SocketServer::start() {
  if (running_.load()) return;
  const sockaddr_un address = make_address(options_.socket_path);
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw UsageError(util::strfmt("socket() failed: %s",
                                  std::strerror(errno)));
  ::unlink(options_.socket_path.c_str());  // stale socket from a crash
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0 ||
      ::listen(listen_fd_, options_.listen_backlog) != 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw UsageError(util::strfmt("cannot listen on %s: %s",
                                  options_.socket_path.c_str(),
                                  std::strerror(saved)));
  }
  stopping_.store(false);
  running_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void SocketServer::stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  // Shutting the listener down makes accept() fail, ending the accept
  // loop; the fd is closed only once that thread can no longer read it.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  std::vector<std::shared_ptr<Connection>> connections;
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connections.swap(connections_);
    threads.swap(connection_threads_);
  }
  // Each reader wakes from recv and closes its own fd on exit.
  for (const std::shared_ptr<Connection>& connection : connections)
    connection->shutdown();
  for (std::thread& thread : threads)
    if (thread.joinable()) thread.join();
  ::unlink(options_.socket_path.c_str());
}

void SocketServer::accept_loop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed by stop()
    }
    auto connection = std::make_shared<Connection>();
    connection->fd = fd;
    std::lock_guard<std::mutex> lock(connections_mutex_);
    if (stopping_.load()) {
      connection->close();
      return;
    }
    connections_.push_back(connection);
    connection_threads_.emplace_back(
        [this, connection] { serve_connection(connection); });
  }
}

void SocketServer::serve_connection(std::shared_ptr<Connection> connection) {
  std::string buffer;
  char chunk[4096];
  // When a line overruns max_line_bytes we answer once and then discard
  // bytes until its newline, so a hostile client cannot make the server
  // buffer without bound — and cannot starve its own later requests.
  bool discarding = false;
  while (true) {
    const ssize_t n = ::recv(connection->fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF, or shut down by stop() or a failed write
    buffer.append(chunk, static_cast<std::size_t>(n));

    std::size_t start = 0;
    for (std::size_t i = start; i < buffer.size(); ++i) {
      if (buffer[i] != '\n') continue;
      if (discarding) {
        discarding = false;
      } else {
        std::string line = buffer.substr(start, i - start);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (!line.empty())
          daemon_.handle_line(std::move(line),
                              [connection](std::string reply) {
                                connection->write_line(reply);
                              });
      }
      start = i + 1;
    }
    buffer.erase(0, start);

    if (!discarding && buffer.size() > options_.max_line_bytes) {
      connection->write_line(error_reply(
          "", ErrorKind::kParse,
          util::strfmt("request line exceeds %zu bytes; discarded",
                       options_.max_line_bytes)));
      buffer.clear();
      discarding = true;
    }
    if (discarding) buffer.clear();
  }
  connection->close();
}

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(other.fd_), buffer_(std::move(other.buffer_)) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    other.fd_ = -1;
  }
  return *this;
}

bool Client::connect(const std::string& socket_path) {
  close();
  sockaddr_un address{};
  try {
    address = make_address(socket_path);
  } catch (const UsageError&) {
    return false;
  }
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  buffer_.clear();
  return true;
}

bool Client::send_line(const std::string& line) {
  if (fd_ < 0) return false;
  std::string framed = line;
  framed.push_back('\n');
  if (send_all(fd_, framed.data(), framed.size())) return true;
  close();
  return false;
}

bool Client::recv_line(std::string* line) {
  if (fd_ < 0) return false;
  while (true) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      line->assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      close();
      return false;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::optional<std::string> Client::request(const std::string& line) {
  std::string reply;
  if (!send_line(line) || !recv_line(&reply)) return std::nullopt;
  return reply;
}

void Client::close() {
  if (fd_ < 0) return;
  ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

}  // namespace grophecy::serve
