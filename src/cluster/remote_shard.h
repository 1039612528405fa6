// Copyright 2026 The ARSP Authors.
//
// RemoteShard — a ServiceBackend over an arspd peer. ArspClient is one
// blocking connection with strictly sequential requests, so concurrency
// comes from a checkout/return pool: each call borrows an idle connection
// (or dials a new one), runs the round trip, and returns it. A transport
// error closes the connection (typed Unavailable), and a closed connection
// is discarded, not returned — the next call dials fresh, which is the
// reconnect policy.

#ifndef ARSP_CLUSTER_REMOTE_SHARD_H_
#define ARSP_CLUSTER_REMOTE_SHARD_H_

#include <mutex>
#include <string>
#include <vector>

#include "src/net/backend.h"
#include "src/net/client.h"

namespace arsp {
namespace cluster {

using net::AddViewRequest;
using net::AddViewResponse;
using net::DropRequest;
using net::LoadDatasetRequest;
using net::LoadDatasetResponse;
using net::QueryRequestWire;
using net::QueryResponseWire;
using net::StatsRequest;
using net::StatsResponse;

class RemoteShard : public net::ServiceBackend {
 public:
  RemoteShard(std::string host, int port);

  StatusOr<LoadDatasetResponse> Load(const LoadDatasetRequest& request) override;
  StatusOr<AddViewResponse> AddView(const AddViewRequest& request) override;
  StatusOr<QueryResponseWire> Query(const QueryRequestWire& request) override;
  StatusOr<StatsResponse> Stats(const StatsRequest& request) override;
  Status Drop(const DropRequest& request) override;

  const std::string& host() const { return host_; }
  int port() const { return port_; }
  std::string address() const { return host_ + ":" + std::to_string(port_); }

 private:
  StatusOr<net::ArspClient> Checkout();
  void Return(net::ArspClient client);

  std::string host_;
  int port_;
  std::mutex mu_;
  std::vector<net::ArspClient> idle_;
};

}  // namespace cluster
}  // namespace arsp

#endif  // ARSP_CLUSTER_REMOTE_SHARD_H_
