// Copyright 2026 The ARSP Authors.
//
// ArspClient — the thin client side of the arspd wire protocol: one
// blocking TCP connection, one typed method per message. arsp_cli
// --connect is a shell over this class; embedding applications can use it
// directly. Requests on one client are strictly sequential (the protocol
// has no interleaving); open several clients for concurrency — the daemon
// serves connections in parallel.

#ifndef ARSP_NET_CLIENT_H_
#define ARSP_NET_CLIENT_H_

#include <string>
#include <utility>

#include "src/common/status.h"
#include "src/net/protocol.h"

namespace arsp {
namespace net {

/// Splits "host:port" into its parts; InvalidArgument unless the port is a
/// valid TCP port (host may be a name or numeric address). Shared by
/// arsp_cli --connect and arspd flag parsing.
StatusOr<std::pair<std::string, int>> ParseHostPort(const std::string& spec);

/// One connection to an arspd. Move-only (owns the socket); every call
/// blocks until its response arrives. Not thread-safe — one client per
/// thread.
class ArspClient {
 public:
  ArspClient() = default;
  ~ArspClient();

  ArspClient(ArspClient&& other) noexcept;
  ArspClient& operator=(ArspClient&& other) noexcept;
  ArspClient(const ArspClient&) = delete;
  ArspClient& operator=(const ArspClient&) = delete;

  /// Connects to host:port. Internal when the host does not resolve,
  /// Unavailable when no connection can be made.
  static StatusOr<ArspClient> Connect(const std::string& host, int port);

  bool connected() const { return fd_ >= 0; }
  void Close();

  /// Liveness probe.
  Status Ping();

  /// Registers (or idempotently re-registers) a named dataset.
  StatusOr<LoadDatasetResponse> LoadDataset(const LoadDatasetRequest& request);

  /// Registers a named view over a named base dataset.
  StatusOr<AddViewResponse> AddView(const AddViewRequest& request);

  /// Runs one query against a registered name.
  StatusOr<QueryResponseWire> Query(const QueryRequestWire& request);

  /// Engine + registry stats; a non-empty `dataset` adds its index-work
  /// counters.
  StatusOr<StatsResponse> Stats(const std::string& dataset = std::string());

  /// Unregisters a dataset or view (bases cascade to their views).
  Status Drop(const std::string& name);

  /// The daemon's process metrics as Prometheus text — the same bytes the
  /// HTTP /metrics endpoint serves. Since wire v6.
  StatusOr<MetricsResponse> Metrics();

  /// The most recent traced query the daemon retained (id 0 / empty spans
  /// when none). Since wire v6.
  StatusOr<TraceResponse> Trace();

  /// Asks the daemon to drain and exit. The connection is closed after the
  /// acknowledgment either way.
  Status Shutdown();

 private:
  /// Sends one request frame and receives the response. kError responses
  /// decode into their carried Status; a response of any type other than
  /// `expect` is an Internal protocol error. A transport failure (I/O
  /// error, peer close) closes the connection and returns Unavailable; a
  /// malformed response frame closes it too, keeping its InvalidArgument.
  /// After a failure, connected() tells whether the connection is reusable.
  StatusOr<Frame> RoundTrip(MessageType type, const std::string& payload,
                            MessageType expect);

  /// Closes the connection and returns Unavailable naming `cause`.
  Status Disconnect(const Status& cause);

  int fd_ = -1;
};

}  // namespace net
}  // namespace arsp

#endif  // ARSP_NET_CLIENT_H_
