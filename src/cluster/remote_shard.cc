// Copyright 2026 The ARSP Authors.

#include "src/cluster/remote_shard.h"

#include <utility>

namespace arsp {
namespace cluster {

RemoteShard::RemoteShard(std::string host, int port)
    : host_(std::move(host)), port_(port) {}

StatusOr<net::ArspClient> RemoteShard::Checkout() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!idle_.empty()) {
      net::ArspClient client = std::move(idle_.back());
      idle_.pop_back();
      return client;
    }
  }
  return net::ArspClient::Connect(host_, port_);
}

void RemoteShard::Return(net::ArspClient client) {
  std::lock_guard<std::mutex> lock(mu_);
  idle_.push_back(std::move(client));
}

// One borrowed round trip: checkout (or dial), call, and return the
// connection to the pool unless the call closed it (ArspClient closes on
// every transport failure, so a dead connection never goes back).
#define ARSP_REMOTE_CALL(METHOD, ...)                    \
  do {                                                   \
    auto client = Checkout();                            \
    if (!client.ok()) return client.status();            \
    auto result = client->METHOD(__VA_ARGS__);           \
    if (client->connected()) Return(std::move(*client)); \
    return result;                                       \
  } while (0)

StatusOr<LoadDatasetResponse> RemoteShard::Load(
    const LoadDatasetRequest& request) {
  ARSP_REMOTE_CALL(LoadDataset, request);
}

StatusOr<AddViewResponse> RemoteShard::AddView(const AddViewRequest& request) {
  ARSP_REMOTE_CALL(AddView, request);
}

StatusOr<QueryResponseWire> RemoteShard::Query(
    const QueryRequestWire& request) {
  ARSP_REMOTE_CALL(Query, request);
}

StatusOr<StatsResponse> RemoteShard::Stats(const StatsRequest& request) {
  ARSP_REMOTE_CALL(Stats, request.dataset);
}

Status RemoteShard::Drop(const DropRequest& request) {
  ARSP_REMOTE_CALL(Drop, request.name);
}

#undef ARSP_REMOTE_CALL

}  // namespace cluster
}  // namespace arsp
