// Copyright 2026 The ARSP Authors.

#include "src/net/client.h"

#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace arsp {
namespace net {

StatusOr<std::pair<std::string, int>> ParseHostPort(const std::string& spec) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size()) {
    return Status::InvalidArgument("'" + spec +
                                   "' is not host:port (e.g. 127.0.0.1:7439)");
  }
  const std::string port_str = spec.substr(colon + 1);
  char* end = nullptr;
  const long port = std::strtol(port_str.c_str(), &end, 10);
  if (end != port_str.c_str() + port_str.size() || port < 1 || port > 65535) {
    return Status::InvalidArgument("bad port '" + port_str +
                                   "' in '" + spec + "'");
  }
  return std::make_pair(spec.substr(0, colon), static_cast<int>(port));
}

ArspClient::~ArspClient() { Close(); }

ArspClient::ArspClient(ArspClient&& other) noexcept : fd_(other.fd_) {
  other.fd_ = -1;
}

ArspClient& ArspClient::operator=(ArspClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void ArspClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

StatusOr<ArspClient> ArspClient::Connect(const std::string& host, int port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* resolved = nullptr;
  const std::string port_str = std::to_string(port);
  const int gai =
      ::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &resolved);
  if (gai != 0) {
    return Status::Internal("cannot resolve '" + host +
                            "': " + gai_strerror(gai));
  }
  int fd = -1;
  Status status = Status::Internal("no usable address");
  for (addrinfo* ai = resolved; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      status =
          Status::Internal(std::string("socket: ") + std::strerror(errno));
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      status = Status::OK();
      break;
    }
    status = Status::Unavailable("connect " + host + ":" + port_str + ": " +
                                 std::strerror(errno));
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(resolved);
  if (!status.ok()) return status;
  ArspClient client;
  client.fd_ = fd;
  return client;
}

Status ArspClient::Disconnect(const Status& cause) {
  Close();
  return Status::Unavailable("connection lost: " + cause.message());
}

StatusOr<Frame> ArspClient::RoundTrip(MessageType type,
                                      const std::string& payload,
                                      MessageType expect) {
  if (fd_ < 0) return Status::FailedPrecondition("client is not connected");
  const Status sent = SendFrame(fd_, type, payload);
  if (!sent.ok()) {
    // An oversized payload is refused before any byte is written; any other
    // send failure leaves the stream in an unknown state.
    return sent.code() == StatusCode::kInvalidArgument ? sent
                                                       : Disconnect(sent);
  }
  StatusOr<Frame> frame = RecvFrame(fd_);
  if (!frame.ok()) {
    if (frame.status().code() != StatusCode::kInvalidArgument) {
      return Disconnect(frame.status());  // I/O error or peer close
    }
    Close();  // a malformed or truncated frame: the framing is lost
    return frame.status();
  }
  if (frame->type == MessageType::kError) {
    ErrorResponse error;
    const Status st = error.DecodePayload(frame->payload);
    if (!st.ok()) return st;
    return error.ToStatus();
  }
  if (frame->type == MessageType::kRetryLater) {
    RetryLaterResponse retry;
    const Status st = retry.DecodePayload(frame->payload);
    if (!st.ok()) return st;
    return Status::Unavailable(
        (retry.reason.empty() ? std::string("server overloaded")
                              : retry.reason) +
        " (retry after " + std::to_string(retry.retry_after_ms) + "ms)");
  }
  if (frame->type != expect) {
    return Status::Internal(std::string("expected ") +
                            MessageTypeName(expect) + " response, got " +
                            MessageTypeName(frame->type));
  }
  return frame;
}

Status ArspClient::Ping() {
  return RoundTrip(MessageType::kPing, std::string(), MessageType::kOk)
      .status();
}

StatusOr<LoadDatasetResponse> ArspClient::LoadDataset(
    const LoadDatasetRequest& request) {
  auto frame = RoundTrip(MessageType::kLoadDataset, request.EncodePayload(),
                         MessageType::kLoadResult);
  if (!frame.ok()) return frame.status();
  LoadDatasetResponse response;
  ARSP_RETURN_IF_ERROR(response.DecodePayload(frame->payload));
  return response;
}

StatusOr<AddViewResponse> ArspClient::AddView(const AddViewRequest& request) {
  auto frame = RoundTrip(MessageType::kAddView, request.EncodePayload(),
                         MessageType::kViewResult);
  if (!frame.ok()) return frame.status();
  AddViewResponse response;
  ARSP_RETURN_IF_ERROR(response.DecodePayload(frame->payload));
  return response;
}

StatusOr<QueryResponseWire> ArspClient::Query(
    const QueryRequestWire& request) {
  auto frame = RoundTrip(MessageType::kQuery, request.EncodePayload(),
                         MessageType::kQueryResult);
  if (!frame.ok()) return frame.status();
  QueryResponseWire response;
  ARSP_RETURN_IF_ERROR(response.DecodePayload(frame->payload));
  return response;
}

StatusOr<StatsResponse> ArspClient::Stats(const std::string& dataset) {
  StatsRequest request;
  request.dataset = dataset;
  auto frame = RoundTrip(MessageType::kStats, request.EncodePayload(),
                         MessageType::kStatsResult);
  if (!frame.ok()) return frame.status();
  StatsResponse response;
  ARSP_RETURN_IF_ERROR(response.DecodePayload(frame->payload));
  return response;
}

Status ArspClient::Drop(const std::string& name) {
  DropRequest request;
  request.name = name;
  return RoundTrip(MessageType::kDrop, request.EncodePayload(),
                   MessageType::kOk)
      .status();
}

StatusOr<MetricsResponse> ArspClient::Metrics() {
  auto frame = RoundTrip(MessageType::kMetrics, std::string(),
                         MessageType::kMetricsResult);
  if (!frame.ok()) return frame.status();
  MetricsResponse response;
  ARSP_RETURN_IF_ERROR(response.DecodePayload(frame->payload));
  return response;
}

StatusOr<TraceResponse> ArspClient::Trace() {
  auto frame = RoundTrip(MessageType::kTraceGet, std::string(),
                         MessageType::kTraceResult);
  if (!frame.ok()) return frame.status();
  TraceResponse response;
  ARSP_RETURN_IF_ERROR(response.DecodePayload(frame->payload));
  return response;
}

Status ArspClient::Shutdown() {
  const Status status =
      RoundTrip(MessageType::kShutdown, std::string(), MessageType::kOk)
          .status();
  Close();
  return status;
}

}  // namespace net
}  // namespace arsp
