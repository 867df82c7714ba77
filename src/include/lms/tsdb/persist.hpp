#pragma once

// Snapshot persistence for the storage engine. The snapshot format is the
// stack's own wire format — line protocol, one section per database:
//
//   # lms-snapshot v1
//   # database: lms
//   cpu,hostname=h1 user_percent=42 1500000000000000000
//   ...
//   # database: user_alice
//   ...
//
// Using the line protocol keeps snapshots human-readable and loadable into
// a real InfluxDB with curl — the same integration-friendliness argument
// the paper makes for the transport (§III-A).

#include <string>

#include "lms/tsdb/storage.hpp"
#include "lms/util/status.hpp"

namespace lms::tsdb {

/// Write all databases to `path`. Atomic and durable: writes "<path>.tmp",
/// fsyncs it, renames it over `path`, then fsyncs the directory.
util::Status save_snapshot(Storage& storage, const std::string& path);

/// Load a snapshot into the storage (merged into existing data). Returns
/// the number of points loaded.
util::Result<std::size_t> load_snapshot(Storage& storage, const std::string& path);

/// Serialize one database's full content as line protocol (used by
/// save_snapshot and the /dump HTTP endpoint). Concurrent callers must hold
/// a ReadSnapshot of `db` while this runs.
std::string dump_database(const Database& db);

}  // namespace lms::tsdb
