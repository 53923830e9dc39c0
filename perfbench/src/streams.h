// Seeded inputs of the benchmark: keyword request streams and the
// lineitem write stream. Everything a workload sends derives from the
// --seed argument through these, so one seed always yields one input.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/index_update.h"
#include "db/database.h"
#include "util/random.h"
#include "util/string_util.h"

namespace perfbench {

// Independent per-stream seed (one per client thread, writer, ...).
inline std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream) {
  dash::util::SplitMix64 mix(seed ^ (0x9E3779B97F4A7C15ULL * (stream + 1)));
  return mix.Next();
}

// The /search target for one keyword.
inline std::string SearchTarget(const std::string& keyword, int k,
                                std::uint64_t s) {
  return "/search?q=" + dash::util::UrlEncode(keyword) +
         "&k=" + std::to_string(k) + "&s=" + std::to_string(s);
}

// Draws keyword ranks: uniform over [0, pool) when `zipf` is null, else
// Zipf-distributed over the DF-descending vocabulary (rank 0 hottest).
class RequestStream {
 public:
  RequestStream(std::size_t pool, const dash::util::ZipfSampler* zipf,
                std::uint64_t seed)
      : pool_(pool), zipf_(zipf), rng_(seed) {}

  std::size_t Next() {
    return zipf_ != nullptr ? zipf_->Sample(rng_) : rng_.Below(pool_);
  }

 private:
  std::size_t pool_;
  const dash::util::ZipfSampler* zipf_;
  dash::util::SplitMix64 rng_;
};

// One write of the lineitem churn stream: 60% inserts of a fresh lineitem
// under a random existing order, 40% deletes of a random existing
// lineitem (the stream tools/dash_writebench applies).
struct WriteOp {
  bool insert = true;
  dash::db::Row row;
};

class WriteStream {
 public:
  explicit WriteStream(std::uint64_t seed) : rng_(seed) {}

  // Draws the next write against the database's current state.
  WriteOp Next(const dash::db::Database& db) {
    using dash::db::Value;
    const dash::db::Table& lineitem = db.table("lineitem");
    WriteOp op;
    if (lineitem.row_count() == 0 || rng_.NextDouble() < 0.6) {
      const dash::db::Table& orders = db.table("orders");
      const dash::db::Row& order = orders.rows()[rng_.Below(orders.row_count())];
      op.insert = true;
      op.row = {Value(next_lid_++),
                order[0],
                Value(static_cast<std::int64_t>(rng_.Range(0, 29))),
                Value(static_cast<std::int64_t>(rng_.Range(1, 50))),
                Value(99.5),
                Value(0.05),
                Value("1995-01-01"),
                Value("quick brown lineitem")};
    } else {
      op.insert = false;
      op.row = lineitem.rows()[rng_.Below(lineitem.row_count())];
    }
    return op;
  }

 private:
  dash::util::SplitMix64 rng_;
  std::int64_t next_lid_ = 1000000;
};

inline void Apply(dash::core::UpdatableIndex& index, const WriteOp& op) {
  if (op.insert) {
    index.Insert("lineitem", op.row);
  } else {
    index.Delete("lineitem", op.row);
  }
}

}  // namespace perfbench
