#include "service/transport.h"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/error.h"

namespace qzz::svc {

// ---------------------------------------------------------------------------
// Stream (stdio) transport
// ---------------------------------------------------------------------------

bool
StreamConnection::readLine(std::string &line)
{
    return bool(std::getline(in_, line));
}

bool
StreamConnection::write(const std::string &data)
{
    out_ << data << std::flush;
    return bool(out_);
}

std::unique_ptr<Connection>
StdioTransport::accept()
{
    if (done_.exchange(true))
        return nullptr;
    return std::make_unique<StreamConnection>(in_, out_);
}

// ---------------------------------------------------------------------------
// Socket transport
// ---------------------------------------------------------------------------

namespace {

/** A connected socket session with idle-timeout and line-length
 *  bounds.  Owns the fd. */
class SocketConnection : public Connection
{
  public:
    SocketConnection(int fd, std::string peer,
                     std::chrono::milliseconds idle_timeout,
                     size_t max_line_bytes)
        : fd_(fd), peer_(std::move(peer)), idle_timeout_(idle_timeout),
          max_line_bytes_(max_line_bytes)
    {
    }

    ~SocketConnection() override
    {
        if (fd_ >= 0) {
            ::shutdown(fd_, SHUT_RDWR);
            ::close(fd_);
        }
    }

    bool
    readLine(std::string &line) override
    {
        for (;;) {
            const auto nl = buf_.find('\n');
            if (nl != std::string::npos) {
                line.assign(buf_, 0, nl);
                buf_.erase(0, nl + 1);
                if (!line.empty() && line.back() == '\r')
                    line.pop_back();
                return true;
            }
            if (buf_.size() > max_line_bytes_)
                return false; // overlong request: drop the session
            if (eof_) {
                // Deliver a final unterminated line once, like
                // std::getline, then report end of stream.
                if (buf_.empty())
                    return false;
                line.swap(buf_);
                buf_.clear();
                if (!line.empty() && line.back() == '\r')
                    line.pop_back();
                return true;
            }
            if (idle_timeout_.count() > 0) {
                struct pollfd pfd = {fd_, POLLIN, 0};
                const int rc =
                    ::poll(&pfd, 1, int(idle_timeout_.count()));
                if (rc == 0)
                    return false; // idle timeout: disconnect
                if (rc < 0) {
                    if (errno == EINTR)
                        continue;
                    return false;
                }
            }
            char chunk[4096];
            const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n > 0) {
                buf_.append(chunk, size_t(n));
            } else if (n == 0) {
                eof_ = true;
            } else if (errno != EINTR) {
                return false;
            }
        }
    }

    bool
    write(const std::string &data) override
    {
        size_t off = 0;
        while (off < data.size()) {
            // MSG_NOSIGNAL: a vanished peer must read as an error on
            // this session, not SIGPIPE the whole server.
            const ssize_t n = ::send(fd_, data.data() + off,
                                     data.size() - off, MSG_NOSIGNAL);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                return false;
            }
            off += size_t(n);
        }
        return true;
    }

    std::string peer() const override { return peer_; }

  private:
    int fd_;
    std::string peer_;
    std::chrono::milliseconds idle_timeout_;
    size_t max_line_bytes_;
    std::string buf_;
    bool eof_ = false;
};

} // namespace

SocketTransport::SocketTransport(SocketTransportConfig config)
    : config_(std::move(config))
{
    const std::string &spec = config_.listen;
    int fd = -1;
    if (spec.rfind("unix:", 0) == 0) {
        const std::string path = spec.substr(5);
        require(!path.empty(), "SocketTransport: empty unix socket path");
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (path.size() >= sizeof(addr.sun_path))
            fatal("SocketTransport: unix socket path too long: " + path);
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd < 0)
            fatal("SocketTransport: socket(): " +
                  std::string(std::strerror(errno)));
        // A stale path from a crashed predecessor would fail bind;
        // this server is taking over the endpoint.
        ::unlink(path.c_str());
        if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            const int err = errno;
            ::close(fd);
            fatal("SocketTransport: bind(" + path +
                  "): " + std::strerror(err));
        }
        unix_path_ = path;
        name_ = "unix:" + path;
    } else if (spec.rfind("tcp:", 0) == 0) {
        std::string host = "0.0.0.0";
        std::string port_str = spec.substr(4);
        const auto colon = port_str.rfind(':');
        if (colon != std::string::npos) {
            host = port_str.substr(0, colon);
            port_str = port_str.substr(colon + 1);
            if (host == "localhost")
                host = "127.0.0.1";
        }
        int port = -1;
        try {
            size_t used = 0;
            port = std::stoi(port_str, &used);
            if (used != port_str.size())
                port = -1;
        } catch (const std::exception &) {
        }
        if (port < 0 || port > 65535)
            fatal("SocketTransport: bad tcp port in '" + spec + "'");
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(uint16_t(port));
        if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
            fatal("SocketTransport: bad tcp host in '" + spec + "'");
        fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd < 0)
            fatal("SocketTransport: socket(): " +
                  std::string(std::strerror(errno)));
        const int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            const int err = errno;
            ::close(fd);
            fatal("SocketTransport: bind(" + spec +
                  "): " + std::strerror(err));
        }
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound),
                          &len) == 0)
            port_ = int(ntohs(bound.sin_port));
        name_ = "tcp:" + host + ":" + std::to_string(port_);
    } else {
        fatal("SocketTransport: listen spec must be tcp:[HOST:]PORT or "
              "unix:PATH, got '" +
              spec + "'");
    }
    if (::listen(fd, 64) != 0) {
        const int err = errno;
        ::close(fd);
        fatal("SocketTransport: listen(" + name_ +
              "): " + std::strerror(err));
    }
    if (::pipe2(wake_fds_, O_CLOEXEC) != 0) {
        const int err = errno;
        ::close(fd);
        fatal("SocketTransport: pipe2(): " +
              std::string(std::strerror(err)));
    }
    listen_fd_ = fd;
}

SocketTransport::~SocketTransport()
{
    shutdown();
    if (listen_fd_ >= 0)
        ::close(listen_fd_);
    for (int fd : wake_fds_)
        if (fd >= 0)
            ::close(fd);
    if (!unix_path_.empty())
        ::unlink(unix_path_.c_str());
}

std::unique_ptr<Connection>
SocketTransport::accept()
{
    while (!down_.load()) {
        struct pollfd pfds[2] = {{listen_fd_, POLLIN, 0},
                                 {wake_fds_[0], POLLIN, 0}};
        const int rc = ::poll(pfds, 2, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            return nullptr;
        }
        if (pfds[1].revents != 0)
            return nullptr; // shutdown() wrote the wake byte
        if ((pfds[0].revents & POLLIN) == 0)
            continue;
        sockaddr_storage peer_addr{};
        socklen_t len = sizeof(peer_addr);
        const int fd =
            ::accept(listen_fd_,
                     reinterpret_cast<sockaddr *>(&peer_addr), &len);
        if (fd < 0)
            continue; // transient (ECONNABORTED, EINTR, ...)
        std::string peer = "?";
        if (peer_addr.ss_family == AF_INET) {
            const auto *in4 =
                reinterpret_cast<const sockaddr_in *>(&peer_addr);
            char host[INET_ADDRSTRLEN] = {0};
            ::inet_ntop(AF_INET, &in4->sin_addr, host, sizeof(host));
            peer = std::string(host) + ":" +
                   std::to_string(ntohs(in4->sin_port));
        } else if (peer_addr.ss_family == AF_UNIX) {
            peer = name_;
        }
        return std::make_unique<SocketConnection>(
            fd, std::move(peer), config_.idle_timeout,
            config_.max_line_bytes);
    }
    return nullptr;
}

void
SocketTransport::shutdown()
{
    if (down_.exchange(true))
        return;
    // Async-signal-safe by design: a signal-watcher thread (or even a
    // handler) only needs this one write() to stop the accept loop.
    const char byte = 0;
    [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &byte, 1);
}

} // namespace qzz::svc
