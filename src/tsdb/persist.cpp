#include "lms/tsdb/persist.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "lms/lineproto/codec.hpp"
#include "lms/util/strings.hpp"

namespace lms::tsdb {

namespace {

/// fsync a file or directory by path. False when it cannot be opened or the
/// kernel reports a write-back error.
bool fsync_path(const std::string& path, int flags) {
  const int fd = ::open(path.c_str(), flags | O_CLOEXEC);
  if (fd < 0) return false;
  const bool synced = ::fsync(fd) == 0;
  return ::close(fd) == 0 && synced;
}

}  // namespace

std::string dump_database(const Database& db) {
  std::string out;
  for (const auto& measurement : db.measurements()) {
    for (const Series* series : db.series_of(measurement)) {
      // Re-merge the field columns into points keyed by timestamp so one
      // line carries all fields sampled together.
      std::map<TimeNs, lineproto::Point> points;
      for (const auto& [field, column] : series->columns) {
        for (std::size_t i = 0; i < column.size(); ++i) {
          const TimeNs t = column.times()[i];
          auto it = points.find(t);
          if (it == points.end()) {
            lineproto::Point p;
            p.measurement = series->measurement;
            p.tags = series->tags;
            p.timestamp = t;
            it = points.emplace(t, std::move(p)).first;
          }
          it->second.add_field(field, column.values()[i]);
        }
      }
      for (const auto& [t, p] : points) {
        out += lineproto::serialize(p);
        out.push_back('\n');
      }
    }
  }
  return out;
}

util::Status save_snapshot(Storage& storage, const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream file(tmp, std::ios::trunc);
    if (!file) return util::Status::error("cannot open '" + tmp + "' for writing");
    file << "# lms-snapshot v1\n";
    for (const auto& name : storage.databases()) {
      const ReadSnapshot snap = storage.snapshot(name);
      if (!snap) continue;
      file << "# database: " << name << "\n";
      file << dump_database(*snap);
    }
    file.close();
    if (!file) return util::Status::error("write to '" + tmp + "' failed");
  }
  // Durable replace: the data reaches the disk before the rename can, and
  // the rename itself is made durable through the directory.
  if (!fsync_path(tmp, O_RDONLY)) return util::Status::error("fsync of '" + tmp + "' failed");
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return util::Status::error("rename to '" + path + "' failed");
  }
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : (slash == 0 ? "/" : path.substr(0, slash));
  if (!fsync_path(dir, O_RDONLY | O_DIRECTORY)) {
    return util::Status::error("fsync of directory '" + dir + "' failed");
  }
  return {};
}

util::Result<std::size_t> load_snapshot(Storage& storage, const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return util::Result<std::size_t>::error("cannot open '" + path + "'");
  }
  std::string current_db = "lms";
  std::size_t loaded = 0;
  std::string line;
  std::vector<lineproto::Point> batch;
  auto flush = [&] {
    if (batch.empty()) return;
    storage.write(current_db, batch, 0);
    loaded += batch.size();
    batch.clear();
  };
  bool header_seen = false;
  while (std::getline(file, line)) {
    const std::string_view trimmed = util::trim(line);
    if (trimmed.empty()) continue;
    if (trimmed[0] == '#') {
      if (util::starts_with(trimmed, "# lms-snapshot")) {
        header_seen = true;
      } else if (util::starts_with(trimmed, "# database:")) {
        flush();
        current_db = std::string(util::trim(trimmed.substr(sizeof("# database:") - 1)));
      }
      continue;
    }
    auto p = lineproto::parse_line(trimmed);
    if (!p.ok()) {
      return util::Result<std::size_t>::error("snapshot '" + path + "': " + p.message());
    }
    batch.push_back(p.take());
    if (batch.size() >= 1000) flush();
  }
  flush();
  if (!header_seen) {
    return util::Result<std::size_t>::error("'" + path + "' is not an lms snapshot");
  }
  return loaded;
}

}  // namespace lms::tsdb
