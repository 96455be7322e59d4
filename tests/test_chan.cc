// Unit tests: channels — SPSC rings (incl. a real-thread stress test),
// pools with rich pointers, request database, registry and channel manager.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <set>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/chan/channel.h"
#include "src/chan/pool.h"
#include "src/chan/registry.h"
#include "src/chan/request_db.h"
#include "src/chan/spsc_ring.h"
#include "src/sim/rng.h"
#include "tests/resident_memory.h"

using namespace newtos::chan;

// --- SPSC ring -----------------------------------------------------------------------

TEST(SpscRing, FifoOrder) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.try_push(i));
  int out;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(ring.try_pop(out));
}

TEST(SpscRing, FullRejectsWithoutBlocking) {
  SpscRing<int> ring(4);
  int pushed = 0;
  while (ring.try_push(pushed)) ++pushed;
  EXPECT_GE(pushed, 4);
  int out;
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_TRUE(ring.try_push(99));  // slot freed
}

TEST(SpscRing, SizeTracksOccupancy) {
  SpscRing<int> ring(16);
  EXPECT_TRUE(ring.empty());
  ring.try_push(1);
  ring.try_push(2);
  EXPECT_EQ(ring.size(), 2u);
  int out;
  ring.try_pop(out);
  EXPECT_EQ(ring.size(), 1u);
}

TEST(SpscRing, ResetDropsContents) {
  SpscRing<int> ring(8);
  ring.try_push(1);
  ring.reset();
  EXPECT_TRUE(ring.empty());
  int out;
  EXPECT_FALSE(ring.try_pop(out));
}

// Real-concurrency property: with one producer and one consumer thread, all
// items arrive exactly once, in order, with no locks anywhere.
TEST(SpscRing, ConcurrentStressPreservesFifo) {
  constexpr std::uint64_t kItems = 200000;
  SpscRing<std::uint64_t> ring(1024);
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kItems; ++i) {
      while (!ring.try_push(i)) {
      }
    }
  });
  std::uint64_t expect = 0;
  while (expect < kItems) {
    std::uint64_t v;
    if (ring.try_pop(v)) {
      ASSERT_EQ(v, expect);
      ++expect;
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

// --- Pool ------------------------------------------------------------------------------

TEST(Pool, AllocWriteReadRoundTrip) {
  Pool pool(1, "t", 1 << 16);
  RichPtr p = pool.alloc(100);
  ASSERT_TRUE(p.valid());
  EXPECT_EQ(p.length, 100u);
  auto w = pool.write_view(p);
  w[0] = std::byte{42};
  w[99] = std::byte{7};
  auto r = pool.read_view(p);
  EXPECT_EQ(std::to_integer<int>(r[0]), 42);
  EXPECT_EQ(std::to_integer<int>(r[99]), 7);
}

TEST(Pool, ExhaustionReturnsNull) {
  Pool pool(1, "t", 256);
  RichPtr a = pool.alloc(128);
  RichPtr b = pool.alloc(128);
  RichPtr c = pool.alloc(128);
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_FALSE(c.valid());
  EXPECT_EQ(pool.failed_allocs(), 1u);
}

TEST(Pool, FreeListRecyclesChunks) {
  Pool pool(1, "t", 1 << 12);
  RichPtr a = pool.alloc(1000);
  pool.release(a);
  RichPtr b = pool.alloc(1000);  // should reuse the freed slot
  EXPECT_EQ(b.offset, a.offset);
  // Many alloc/free cycles never exhaust a pool with one live chunk.
  for (int i = 0; i < 10000; ++i) {
    RichPtr p = pool.alloc(1000);
    ASSERT_TRUE(p.valid());
    pool.release(p);
  }
}

TEST(Pool, RefcountsDelayFree) {
  Pool pool(1, "t", 1 << 12);
  RichPtr p = pool.alloc(64);
  pool.addref(p);
  EXPECT_FALSE(pool.release(p));  // one ref left
  EXPECT_TRUE(pool.live(p));
  EXPECT_TRUE(pool.release(p));
  EXPECT_FALSE(pool.live(p));
}

TEST(Pool, ResetInvalidatesOldGeneration) {
  Pool pool(1, "t", 1 << 12);
  RichPtr p = pool.alloc(64);
  pool.reset();
  EXPECT_FALSE(pool.live(p));
  EXPECT_TRUE(pool.read_view(p).empty());   // stale pointer reads nothing
  EXPECT_FALSE(pool.release(p));            // stale frees are no-ops
  RichPtr q = pool.alloc(64);
  EXPECT_NE(q.generation, p.generation);
}

TEST(Pool, BytesLiveAccounting) {
  Pool pool(1, "t", 1 << 14);
  RichPtr a = pool.alloc(100);
  RichPtr b = pool.alloc(200);
  EXPECT_EQ(pool.bytes_live(), 300u);
  pool.release(a);
  EXPECT_EQ(pool.bytes_live(), 200u);
  pool.release(b);
  EXPECT_EQ(pool.bytes_live(), 0u);
}

TEST(PoolRegistry, ResolvesAcrossPools) {
  PoolRegistry reg;
  Pool& a = reg.create("alice", "buf", 4096);
  Pool& b = reg.create("bob", "buf", 4096);
  EXPECT_NE(a.id(), b.id());
  RichPtr p = a.alloc(32);
  a.write_view(p)[0] = std::byte{9};
  EXPECT_EQ(std::to_integer<int>(reg.read(p)[0]), 9);
  RichPtr bogus{999, 0, 32, 1};
  EXPECT_TRUE(reg.read(bogus).empty());
}

TEST(Pool, DmaWriteRespectsBounds) {
  Pool pool(1, "t", 4096);
  RichPtr p = pool.alloc(64);
  std::vector<std::byte> small(64, std::byte{5});
  EXPECT_TRUE(pool.dma_write(p, small));
  std::vector<std::byte> big(65, std::byte{5});
  EXPECT_FALSE(pool.dma_write(p, big));
  pool.reset();
  EXPECT_FALSE(pool.dma_write(p, small));  // stale generation
}

// --- Pool memory -------------------------------------------------------------------------
//
// A pool reserves its size and commits a page only when it is first
// written, so these tests watch the process's resident memory.

namespace {

constexpr std::size_t kMiB = std::size_t{1} << 20;

bool all_zero(std::span<const std::byte> bytes) {
  return std::all_of(bytes.begin(), bytes.end(),
                     [](std::byte b) { return b == std::byte{0}; });
}

}  // namespace

TEST(PoolMemory, CommitsPagesOnFirstWrite) {
  const std::size_t before = resident_bytes();
  Pool pool(1, "t", 256 * kMiB);
  EXPECT_LT(resident_bytes(), before + 8 * kMiB);

  RichPtr p = pool.alloc(32 * kMiB);
  ASSERT_TRUE(p.valid());
  const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  auto w = pool.write_view(p);
  for (std::size_t i = 0; i < w.size(); i += page) w[i] = std::byte{1};
  EXPECT_GE(resident_bytes(), before + 24 * kMiB);
}

// Fresh chunks read as zero, as a zero-filled pool did, and reading them
// commits nothing.
TEST(PoolMemory, FreshChunksReadZero) {
  const std::size_t before = resident_bytes();
  Pool pool(1, "t", 256 * kMiB);
  for (int i = 0; i < 16; ++i) {
    RichPtr p = pool.alloc(kMiB);
    ASSERT_TRUE(p.valid());
    EXPECT_TRUE(all_zero(pool.read_view(p))) << "chunk " << i;
  }
  EXPECT_LT(resident_bytes(), before + 8 * kMiB);
}

// reset() drops the chunks but neither clears nor commits the bytes: a
// chunk allocated again at the same offset holds what was written there.
TEST(PoolMemory, ResetKeepsBytes) {
  const std::size_t before = resident_bytes();
  Pool pool(1, "t", 256 * kMiB);
  RichPtr p = pool.alloc(kMiB);
  ASSERT_TRUE(p.valid());
  auto w = pool.write_view(p);
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = std::byte(i % 251);
  pool.reset();

  RichPtr q = pool.alloc(kMiB);
  ASSERT_EQ(q.offset, p.offset);
  auto r = pool.read_view(q);
  for (std::size_t i = 0; i < r.size(); ++i) {
    ASSERT_EQ(r[i], std::byte(i % 251)) << "byte " << i;
  }
  EXPECT_LT(resident_bytes(), before + 8 * kMiB);
}

// A guard page on each side: a write one byte before a pool or one byte
// past its end faults in every build, not only under a sanitizer.
TEST(PoolMemoryDeathTest, GuardPagesCatchOverruns) {
  Pool pool(1, "t", 64 * 1024);
  RichPtr all = pool.alloc(64 * 1024);
  ASSERT_TRUE(all.valid());
  std::byte* first = pool.write_view(all).data();
  auto* past = reinterpret_cast<volatile std::byte*>(first + pool.size());
  auto* before = reinterpret_cast<volatile std::byte*>(
      reinterpret_cast<std::uintptr_t>(first) - 1);
  EXPECT_DEATH(*past = std::byte{1}, "");
  EXPECT_DEATH(*before = std::byte{1}, "");
}

// The chunk table as a std::map from chunk offset to {length, refs}, with the
// same allocation policy (LIFO free lists per rounded size, then bump) and
// the same loan ledger: the reference Pool must match operation by
// operation, offsets included.
class MapPool {
 public:
  MapPool(std::uint32_t id, std::size_t size) : id_(id), size_(size) {}

  RichPtr alloc(std::uint32_t length) {
    const std::uint32_t rounded = (length + 63u) & ~63u;
    std::uint32_t offset;
    auto it = free_lists_.find(rounded);
    if (it != free_lists_.end() && !it->second.empty()) {
      offset = it->second.back();
      it->second.pop_back();
    } else {
      if (bump_ + rounded > size_) return kNullRichPtr;
      offset = bump_;
      bump_ += rounded;
    }
    chunks_[offset] = Chunk{length, 1};
    bytes_live_ += length;
    return RichPtr{id_, offset, length, generation_};
  }

  void addref(const RichPtr& p) { ++chunks_.at(p.offset).refs; }

  bool release(const RichPtr& p) {
    if (p.generation != generation_) return false;
    auto it = chunks_.find(p.offset);
    if (it == chunks_.end()) return false;
    if (--it->second.refs > 0) return false;
    bytes_live_ -= it->second.length;
    free_lists_[(it->second.length + 63u) & ~63u].push_back(p.offset);
    chunks_.erase(it);
    return true;
  }

  bool live(const RichPtr& p) const {
    if (p.pool != id_ || p.generation != generation_) return false;
    auto it = chunks_.find(p.offset);
    return it != chunks_.end() && it->second.length >= p.length;
  }

  RichPtr containing(const RichPtr& p) const {
    if (p.pool != id_ || p.generation != generation_ || !p.valid())
      return kNullRichPtr;
    auto it = chunks_.upper_bound(p.offset);
    if (it == chunks_.begin()) return kNullRichPtr;
    --it;
    if (std::uint64_t{p.offset} + p.length >
        std::uint64_t{it->first} + it->second.length)
      return kNullRichPtr;
    return RichPtr{id_, it->first, it->second.length, generation_};
  }

  void note_borrow(const RichPtr& p, std::uint32_t borrower) {
    const RichPtr c = containing(p);
    if (!c.valid()) return;
    ++ledger_[borrower][c.offset];
    ++borrows_outstanding_;
  }

  bool note_return(const RichPtr& p, std::uint32_t borrower) {
    if (p.pool != id_ || p.generation != generation_) return false;
    auto lit = ledger_.find(borrower);
    if (lit == ledger_.end()) return false;
    const RichPtr c = containing(p);
    if (!c.valid()) return false;
    auto eit = lit->second.find(c.offset);
    if (eit == lit->second.end()) return false;
    if (--eit->second == 0) lit->second.erase(eit);
    if (lit->second.empty()) ledger_.erase(lit);
    --borrows_outstanding_;
    return true;
  }

  std::size_t reclaim(std::uint32_t borrower) {
    auto lit = ledger_.find(borrower);
    if (lit == ledger_.end()) return 0;
    auto loans = std::move(lit->second);
    ledger_.erase(lit);
    std::size_t reclaimed = 0;
    for (const auto& [offset, count] : loans) {
      borrows_outstanding_ -= count;
      for (std::uint32_t k = 0; k < count; ++k) {
        auto cit = chunks_.find(offset);
        if (cit == chunks_.end()) break;
        release(RichPtr{id_, offset, cit->second.length, generation_});
        ++reclaimed;
      }
    }
    return reclaimed;
  }

  void reset() {
    chunks_.clear();
    free_lists_.clear();
    ledger_.clear();
    borrows_outstanding_ = 0;
    bump_ = 0;
    bytes_live_ = 0;
    ++generation_;
  }

  std::uint32_t bump() const { return bump_; }
  std::size_t chunks_live() const { return chunks_.size(); }
  std::size_t bytes_live() const { return bytes_live_; }
  std::size_t borrows_outstanding() const { return borrows_outstanding_; }

 private:
  struct Chunk {
    std::uint32_t length;
    std::uint32_t refs;
  };
  std::uint32_t id_;
  std::size_t size_;
  std::uint32_t generation_ = 1;
  std::uint32_t bump_ = 0;
  std::map<std::uint32_t, Chunk> chunks_;
  std::map<std::uint32_t, std::vector<std::uint32_t>> free_lists_;
  std::unordered_map<std::uint32_t,
                     std::unordered_map<std::uint32_t, std::uint32_t>>
      ledger_;
  std::size_t borrows_outstanding_ = 0;
  std::size_t bytes_live_ = 0;
};

TEST(Pool, MatchesMapReference) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    newtos::sim::Rng rng(seed);
    PoolRegistry reg;
    Pool& pool = reg.create("t", "p", 4 << 20);
    MapPool ref(pool.id(), pool.size());
    std::vector<RichPtr> held;  // one entry per reference the test owns
    std::unordered_map<std::uint32_t, std::vector<RichPtr>> lent;
    std::size_t reclaimed = 0;

    // A slice inside `c`: never empty, never past its end.
    auto slice_of = [&](const RichPtr& c) {
      const auto off = static_cast<std::uint32_t>(rng.below(c.length));
      const auto len =
          static_cast<std::uint32_t>(1 + rng.below(c.length - off));
      return RichPtr{c.pool, c.offset + off, len, c.generation};
    };
    auto take = [&](std::vector<RichPtr>& v) {
      const std::size_t i = rng.below(v.size());
      const RichPtr p = v[i];
      v[i] = v.back();
      v.pop_back();
      return p;
    };
    // An arbitrary probe: inside a chunk, across its end, past bump_ or in
    // a freed gap.
    auto probe = [&]() {
      RichPtr p{pool.id(), 0, 0, pool.generation()};
      if (!held.empty() && rng.chance(0.5)) {
        p = slice_of(held[rng.below(held.size())]);
        if (rng.chance(0.3)) p.length += 1 + rng.below(200);
      } else {
        p.offset = static_cast<std::uint32_t>(rng.below(ref.bump() + 4096));
        p.length = static_cast<std::uint32_t>(1 + rng.below(300));
      }
      return p;
    };

    for (int op = 0; op < 20000 && !HasFailure(); ++op) {
      switch (rng.below(12)) {
        case 0:
        case 1:
        case 2: {
          const auto len = static_cast<std::uint32_t>(
              rng.chance(0.8) ? 1 + rng.below(2048) : 1 + rng.below(70000));
          const RichPtr p = pool.alloc(len);
          ASSERT_EQ(p, ref.alloc(len));
          if (p.valid()) held.push_back(p);
          break;
        }
        case 3:
          if (held.empty()) break;
          held.push_back(held[rng.below(held.size())]);
          pool.addref(held.back());
          ref.addref(held.back());
          break;
        case 4:
        case 5:
          if (held.empty()) break;
          {
            const RichPtr p = take(held);
            ASSERT_EQ(pool.release(p), ref.release(p));
          }
          break;
        case 6:
          if (held.empty()) break;
          {
            const RichPtr s = slice_of(take(held));
            const RichPtr c = ref.containing(s);
            if (c.valid()) ref.release(c);
            ASSERT_EQ(reg.release(s), c.valid());
          }
          break;
        case 7:
          if (held.empty()) break;
          {
            const auto b = static_cast<std::uint32_t>(1 + rng.below(3));
            const RichPtr p = take(held);
            const RichPtr s = slice_of(p);
            pool.note_borrow(s, b);
            ref.note_borrow(s, b);
            lent[b].push_back(p);
          }
          break;
        case 8: {
          const auto b = static_cast<std::uint32_t>(1 + rng.below(3));
          // A recorded loan, or a bogus return the ledger must refuse.
          const bool real = !lent[b].empty() && rng.chance(0.8);
          const RichPtr s = real ? slice_of(take(lent[b])) : probe();
          const bool ok = pool.note_return(s, b);
          ASSERT_EQ(ok, ref.note_return(s, b));
          if (ok) {
            const RichPtr c = pool.containing(s);
            ASSERT_EQ(pool.release(c), ref.release(c));
          }
          break;
        }
        case 9: {
          const auto b = static_cast<std::uint32_t>(1 + rng.below(3));
          const std::size_t n = pool.reclaim(b);
          ASSERT_EQ(n, ref.reclaim(b));
          reclaimed += n;
          lent.erase(b);
          break;
        }
        case 10:
          if (rng.chance(0.01)) {
            pool.reset();
            ref.reset();
            held.clear();
            lent.clear();
          }
          break;
        default:
          break;
      }
      for (int k = 0; k < 3; ++k) {
        const RichPtr p = probe();
        ASSERT_EQ(pool.containing(p), ref.containing(p));
        ASSERT_EQ(pool.live(p), ref.live(p));
      }
      ASSERT_EQ(pool.chunks_live(), ref.chunks_live());
      ASSERT_EQ(pool.bytes_live(), ref.bytes_live());
      ASSERT_EQ(pool.borrows_outstanding(), ref.borrows_outstanding());
    }
    // The run covered exhaustion and crash reclaim.
    EXPECT_GT(pool.failed_allocs(), 0u);
    EXPECT_GT(reclaimed, 0u);
  }
}

// --- Queue + doorbell ---------------------------------------------------------------------

TEST(Queue, DoorbellFiresOnceOnSend) {
  Queue q("t", 16);
  int rings = 0;
  q.doorbell().arm([&] { ++rings; });
  Message m;
  q.try_send(m);
  q.try_send(m);  // bell consumed by first send
  EXPECT_EQ(rings, 1);
  q.doorbell().arm([&] { ++rings; });
  q.try_send(m);
  EXPECT_EQ(rings, 2);
}

TEST(Queue, CountsFailures) {
  Queue q("t", 2);
  Message m;
  while (q.try_send(m)) {
  }
  EXPECT_GE(q.send_failures(), 1u);
}

// --- Request database ------------------------------------------------------------------------

namespace {

// RequestDb against a reference model: a std::map from submission index to
// the peer of each live request, so the map's own order is the submission
// order every walk must follow.  Every id ever issued stays on record, so
// takes of completed, aborted and reused-slot ids are checked too.
class RequestDbModel {
 public:
  struct Req {
    int peer = 0;
    std::uint64_t k = 0;  // submission index
  };

  explicit RequestDbModel(std::uint64_t seed) : rng_(seed) {}

  void step() {
    switch (rng_.below(16)) {
      case 0: case 1: case 2: case 3: case 4: case 5:
        add(static_cast<int>(rng_.below(kPeers)));
        break;
      case 6: case 7: case 8:
        take_live();
        break;
      case 9: case 10:
        take_dead();
        break;
      case 11:
        take_reused_slot();
        break;
      case 12:
        EXPECT_EQ(db_.find(0), nullptr);
        EXPECT_FALSE(db_.take(0).has_value());
        break;
      case 13: case 14:
        abort_peer(static_cast<int>(rng_.below(kPeers)));
        break;
      default:
        if (rng_.below(8) == 0) clear();
        break;
    }
    check();
  }

  std::uint64_t reused_slot_takes() const { return reused_slot_takes_; }
  std::uint64_t adds_from_aborts() const { return adds_from_aborts_; }
  std::uint64_t clears() const { return clears_; }

 private:
  static constexpr int kPeers = 3;

  void add(int peer) {
    const std::uint64_t k = ids_.size();
    const std::uint64_t id = db_.add(Req{peer, k});
    EXPECT_NE(id, 0u);
    // Never the id of a completed, aborted or live request.
    EXPECT_TRUE(issued_.insert(id).second) << "id " << id << " reissued";
    ids_.push_back(id);
    ref_.emplace(k, peer);
  }

  // A random live request (ref_ must not be empty).
  std::map<std::uint64_t, int>::iterator random_live() {
    return std::next(ref_.begin(),
                     static_cast<std::ptrdiff_t>(rng_.below(ref_.size())));
  }

  // Completes a live request; the payload must come back intact.
  void take_live() {
    if (ref_.empty()) return;
    const auto it = random_live();
    const auto [k, peer] = *it;
    const auto got = db_.take(ids_[k]);
    ASSERT_TRUE(got.has_value()) << "submission " << k;
    EXPECT_EQ(got->k, k);
    EXPECT_EQ(got->peer, peer);
    ref_.erase(it);
    retire(k);
  }

  // A reply for a request that already completed or was aborted.
  void take_dead() {
    if (dead_.empty()) return;
    const std::uint64_t k = dead_[rng_.below(dead_.size())];
    EXPECT_EQ(db_.find(ids_[k]), nullptr) << "submission " << k;
    EXPECT_FALSE(db_.take(ids_[k]).has_value()) << "submission " << k;
  }

  // A stale id whose slot now holds a live request: it must find nothing,
  // and the live request must stay.
  void take_reused_slot() {
    if (ref_.empty()) return;
    const std::uint64_t k = random_live()->first;
    const auto it = retired_.find(static_cast<std::uint32_t>(ids_[k]));
    if (it == retired_.end()) return;
    const std::uint64_t stale = it->second[rng_.below(it->second.size())];
    EXPECT_NE(ids_[stale], ids_[k]);
    EXPECT_FALSE(db_.take(ids_[stale]).has_value());
    const Req* live = db_.find(ids_[k]);
    ASSERT_NE(live, nullptr);
    EXPECT_EQ(live->k, k);
    ++reused_slot_takes_;
  }

  // Aborts everything addressed to `peer`; some actions resubmit, which
  // must not be aborted by the same call.
  void abort_peer(int peer) {
    std::vector<std::uint64_t> expected;
    for (const auto& [k, p] : ref_) {
      if (p == peer) expected.push_back(k);
    }
    std::vector<std::uint64_t> order;
    const std::size_t n = db_.abort_if(
        [peer](const Req& r) { return r.peer == peer; },
        [&](std::uint64_t id, Req&& r) {
          EXPECT_EQ(id, ids_[r.k]);
          EXPECT_EQ(db_.find(id), nullptr);  // gone before its action runs
          order.push_back(r.k);
          if (rng_.below(3) == 0) {
            add(peer);
            ++adds_from_aborts_;
          }
        });
    EXPECT_EQ(n, expected.size());
    EXPECT_EQ(order, expected) << "aborts out of submission order";
    for (const std::uint64_t k : expected) {
      ref_.erase(k);
      retire(k);
    }
  }

  void clear() {
    db_.clear();
    for (const auto& [k, peer] : ref_) retire(k);
    ref_.clear();
    ++clears_;
  }

  void retire(std::uint64_t k) {
    dead_.push_back(k);
    retired_[static_cast<std::uint32_t>(ids_[k])].push_back(k);
  }

  // size() and the submission-order walk against the model.
  void check() {
    EXPECT_EQ(db_.size(), ref_.size());
    std::vector<std::uint64_t> walked;
    db_.for_each([&](std::uint64_t id, const Req& r) {
      EXPECT_EQ(id, ids_[r.k]);
      walked.push_back(r.k);
    });
    std::vector<std::uint64_t> live;
    for (const auto& [k, peer] : ref_) live.push_back(k);
    EXPECT_EQ(walked, live) << "walk out of submission order";
  }

  newtos::sim::Rng rng_;
  RequestDb<Req> db_;
  std::map<std::uint64_t, int> ref_;  // live: submission index -> peer
  std::vector<std::uint64_t> ids_;    // by submission index
  std::set<std::uint64_t> issued_;
  std::vector<std::uint64_t> dead_;   // completed, aborted or cleared
  // slot (low 32 bits of an id) -> submissions that died in it
  std::unordered_map<std::uint32_t, std::vector<std::uint64_t>> retired_;
  std::uint64_t reused_slot_takes_ = 0;
  std::uint64_t adds_from_aborts_ = 0;
  std::uint64_t clears_ = 0;
};

}  // namespace

TEST(RequestDb, MatchesReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    RequestDbModel model(seed);
    for (int op = 0; op < 5000 && !HasFailure(); ++op) model.step();
    // The run covered what the model is for.
    EXPECT_GT(model.reused_slot_takes(), 0u);
    EXPECT_GT(model.adds_from_aborts(), 0u);
    EXPECT_GT(model.clears(), 0u);
    if (HasFailure()) break;
  }
}

// --- Registry / channel manager ------------------------------------------------------------------

TEST(Registry, SubscribeAfterPublishReplays) {
  Registry reg;
  reg.publish("k", Published{"alice", 7});
  int ups = 0;
  bool was_replay = false;
  reg.subscribe("k", [&](const std::string&, const Published& p, bool up,
                         bool replay) {
    ++ups;
    was_replay = replay;
    EXPECT_TRUE(up);
    EXPECT_EQ(p.value, 7u);
  });
  EXPECT_EQ(ups, 1);
  EXPECT_TRUE(was_replay);
}

TEST(Registry, LiveTransitionsAreNotReplays) {
  Registry reg;
  int downs = 0;
  bool live_seen = false;
  reg.subscribe("k", [&](const std::string&, const Published&, bool up,
                         bool replay) {
    if (up && !replay) live_seen = true;
    if (!up) ++downs;
  });
  reg.publish("k", Published{"alice", 1});
  EXPECT_TRUE(live_seen);
  reg.unpublish("k");
  EXPECT_EQ(downs, 1);
  EXPECT_FALSE(reg.lookup("k").has_value());
}

TEST(ChannelManager, CredentialsAreChecked) {
  ChannelManager mgr;
  Queue q("t", 8);
  const auto cred = mgr.export_queue("tcp", "ip", &q);
  EXPECT_EQ(mgr.attach("ip", cred), &q);
  EXPECT_EQ(mgr.attach("mallory", cred), nullptr);  // wrong grantee
  EXPECT_EQ(mgr.attach("ip", cred + 1000), nullptr);  // bogus credential
}

TEST(ChannelManager, RevokeAllInvalidatesCreatorGrants) {
  ChannelManager mgr;
  Queue q("t", 8);
  const auto cred = mgr.export_queue("tcp", "ip", &q);
  EXPECT_EQ(mgr.revoke_all("tcp"), 1u);
  EXPECT_EQ(mgr.attach("ip", cred), nullptr);
}
