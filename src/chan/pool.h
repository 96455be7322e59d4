// Shared memory pools for zero-copy bulk data (Section IV "Pools",
// Section V-C "Zero Copy").
//
// A pool is created (and owned) by exactly one server; any number of servers
// may attach it read-only.  Chunks are reference counted *by the owner*:
// consumers report back when they are done (TX_DONE / RX_DONE messages in
// the network stack) and only the owner frees.  Pools are exported read-only
// so a consumer can never corrupt the original data — if a request must be
// repeated after a crash, the original bytes are still intact.
//
// Two extensions support the chunk-lending socket data plane:
//
//  - Sub-range handles.  Components pass packets as sub-range rich pointers
//    into a chunk (a TCP segment references a slice of a send chunk; a
//    forwarded payload references the data bytes inside a received frame).
//    containing() resolves any live sub-range back to the chunk that owns
//    it, so refcount operations can be expressed against slices.
//
//  - A borrow ledger.  When a reference leaves the stack's custody and is
//    lent to an application (a borrowed datagram view, a send reservation),
//    the loan is recorded per borrower.  A return is only honoured if the
//    ledger knows about it — a double release or a release against a reset
//    pool (stale generation) becomes a safe no-op — and reclaim() frees
//    everything a crashed borrower still held, so a loan can never strand
//    a chunk.
//
// Chunk table.  Every chunk starts on a 64-byte granule, so the table keeps
// one 8-byte {length, refs} entry per granule, indexed by offset >> 6, plus
// one bit per granule marking where a live chunk starts; containing() scans
// the bits back from a slice's granule to the nearest chunk start.  Both
// grow only as the bump high-water mark does: 8 bytes and 1 bit per granule
// below it, however many chunks are live, and no allocation per chunk.
// Allocation is LIFO per rounded size, then bump; offsets decide the order
// in which reclaim() walks a ledger, so the policy is part of what keeps
// runs reproducible.
//
// Pool memory.  The bytes live in an anonymous private mapping, as the
// virtual memory manager would map a pool for its owner: the whole size is
// reserved up front, but a page costs memory only once it is touched, and
// untouched pages read as zero.  reset() leaves the bytes alone.  A PROT_NONE
// guard page sits on each side, so an access before the start, or past the
// end of a pool whose size is a page multiple, faults in every build.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/chan/rich_ptr.h"

namespace newtos::chan {

class Pool {
 public:
  // `id` must be unique per PoolRegistry and non-zero.
  Pool(std::uint32_t id, std::string name, std::size_t size_bytes);

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  std::uint32_t id() const { return id_; }
  const std::string& name() const { return name_; }
  std::size_t size() const { return bytes_.size(); }
  std::uint32_t generation() const { return generation_; }

  // Owner-side allocation.  Returns a null pointer when the pool is
  // exhausted; callers must treat that like a full queue (drop or defer,
  // never block).  The chunk starts with one reference.
  RichPtr alloc(std::uint32_t length);

  // Owner-side reference management.
  void addref(const RichPtr& p);
  // Drops one reference; frees the chunk when it reaches zero.  Returns true
  // if the chunk was freed.  Stale pointers (older generation) are ignored.
  bool release(const RichPtr& p);

  // Owner-side mutable view.  Asserts the pointer is live and in bounds.
  std::span<std::byte> write_view(const RichPtr& p);
  // Device DMA write (NIC receive).  Devices are not subject to the
  // read-only export protection (no IOMMU modelled); bounds are enforced.
  // Returns false on stale pointers or overflow.
  bool dma_write(const RichPtr& p, std::span<const std::byte> data);
  // Consumer-side read-only view (pools are exported read-only).
  std::span<const std::byte> read_view(const RichPtr& p) const;

  // True when `p` names a live chunk of the current generation.
  bool live(const RichPtr& p) const;

  // Resolves a (possibly sub-range) pointer to the full chunk containing
  // it.  Null when the pointer is stale, foreign, or out of any live chunk.
  RichPtr containing(const RichPtr& p) const;

  // --- chunk lending (owner-side loan ledger, Section V-C) -----------------------
  // Records that `borrower` now holds one of `p`'s existing references (the
  // refcount itself does not change — the reference moved out of the
  // stack's custody, it was not duplicated).
  void note_borrow(const RichPtr& p, std::uint32_t borrower);
  // Erases one recorded loan.  Returns false — and the caller must NOT
  // release — when no loan is on record: a double return, a stale pointer
  // after reset(), or a foreign pointer.
  bool note_return(const RichPtr& p, std::uint32_t borrower);
  // Crash cleanup: releases every reference `borrower` still has on loan.
  // Returns how many chunk references were reclaimed.
  std::size_t reclaim(std::uint32_t borrower);
  // Outstanding loans (all borrowers) — the Testbed teardown leak check.
  std::size_t borrows_outstanding() const { return borrows_outstanding_; }
  // Every borrower with loans on record.  The teardown sweep uses this to
  // find well-known borrower-id classes (connection-checkpoint loans) that
  // are legitimately outstanding when a run stops mid-flight.
  std::vector<std::uint32_t> borrowers() const {
    std::vector<std::uint32_t> out;
    out.reserve(ledger_.size());
    for (const auto& [b, loans] : ledger_) out.push_back(b);
    return out;
  }

  // Crash support: drops every chunk and bumps the generation, so all
  // outstanding rich pointers into this pool become stale.
  void reset();

  // Statistics.
  std::size_t chunks_live() const { return chunks_live_; }
  std::size_t bytes_live() const { return bytes_live_; }
  std::uint64_t total_allocs() const { return total_allocs_; }
  std::uint64_t failed_allocs() const { return failed_allocs_; }

 private:
  struct Chunk {
    std::uint32_t length = 0;
    std::uint32_t refs = 0;
  };

  static constexpr unsigned kGranuleShift = 6;  // 64-byte chunk granules

  // `size` bytes of zero-filled memory, committed page by page on first
  // touch, between two PROT_NONE guard pages.  Throws std::bad_alloc when
  // the mapping fails.
  class Mapping {
   public:
    explicit Mapping(std::size_t size);
    ~Mapping();
    Mapping(const Mapping&) = delete;
    Mapping& operator=(const Mapping&) = delete;

    std::byte* data() const { return data_; }
    std::size_t size() const { return size_; }

   private:
    void* base_ = nullptr;  // the low guard page
    std::size_t mapped_ = 0;
    std::byte* data_ = nullptr;
    std::size_t size_ = 0;
  };

  static std::uint32_t round_chunk(std::uint32_t len);
  // The live chunk starting exactly at `offset`, or null.
  const Chunk* chunk_at(std::uint32_t offset) const;
  Chunk* chunk_at(std::uint32_t offset) {
    return const_cast<Chunk*>(std::as_const(*this).chunk_at(offset));
  }
  // Base offset of the live chunk containing `p`.
  std::optional<std::uint32_t> find_containing(const RichPtr& p) const;

  std::uint32_t id_;
  std::string name_;
  Mapping bytes_;
  std::uint32_t generation_ = 1;

  std::uint32_t bump_ = 0;  // high-water mark for fresh allocations
  // offset >> 6 -> chunk metadata; an entry with refs == 0 is no chunk
  std::vector<Chunk> chunks_;
  // one bit per granule, set where a live chunk starts
  std::vector<std::uint64_t> starts_;
  std::size_t chunks_live_ = 0;
  // rounded size -> reusable offsets (simple segregated free lists)
  std::map<std::uint32_t, std::vector<std::uint32_t>> free_lists_;

  // borrower -> (chunk base offset -> loans outstanding)
  std::unordered_map<std::uint32_t,
                     std::unordered_map<std::uint32_t, std::uint32_t>>
      ledger_;
  std::size_t borrows_outstanding_ = 0;

  std::size_t bytes_live_ = 0;
  std::uint64_t total_allocs_ = 0;
  std::uint64_t failed_allocs_ = 0;
};

// Per-node directory of pools, by id.  Models the mappings the virtual
// memory manager would install: a server can only read a pool it attached.
class PoolRegistry {
 public:
  // Creates a pool owned by `owner`.  Ids are assigned sequentially.
  Pool& create(const std::string& owner, const std::string& name,
               std::size_t size_bytes);
  // Destroys a pool (owner exited and nobody should use it again).
  void destroy(std::uint32_t id);

  Pool* find(std::uint32_t id);
  const Pool* find(std::uint32_t id) const;
  // Lookup by name ("tcp.buf", "tcp1.buf", ...): the sharded transport
  // plane names each replica's staging pool after its server.
  Pool* find_by_name(const std::string& name);

  // Resolves a rich pointer to read-only bytes; empty span if stale/unknown.
  std::span<const std::byte> read(const RichPtr& p) const;

  // Drops one reference on the chunk containing `p` (sub-ranges resolve to
  // their owning chunk).  Safe on stale/unknown pointers; returns true when
  // a reference was actually dropped.
  bool release(const RichPtr& p);

  // Every pool, for stats and leak checks.
  std::vector<Pool*> all();

  std::size_t count() const { return pools_.size(); }

 private:
  std::uint32_t next_id_ = 1;
  std::unordered_map<std::uint32_t, std::unique_ptr<Pool>> pools_;
};

}  // namespace newtos::chan
