#include "src/chan/pool.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cassert>
#include <memory>
#include <new>
#include <utility>

namespace newtos::chan {

// Not calloc: freeing a mapped block of up to 32 MiB raises glibc's mmap
// threshold to its size, so later pools would come from the heap and be
// zero-filled again.
Pool::Mapping::Mapping(std::size_t size) : size_(size) {
  const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t span = (size + page - 1) / page * page;
  mapped_ = span + 2 * page;
  // NORESERVE: the pool is a reservation; only touched pages count.
  void* base = ::mmap(nullptr, mapped_, PROT_NONE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (base == MAP_FAILED) throw std::bad_alloc();
  base_ = base;
  data_ = static_cast<std::byte*>(base) + page;
  if (::mprotect(data_, span, PROT_READ | PROT_WRITE) != 0) {
    ::munmap(base_, mapped_);
    throw std::bad_alloc();
  }
  // Base pages only: with transparent huge pages a first touch would commit
  // 2 MiB, and the committed size would depend on the host's THP setting.
  ::madvise(data_, span, MADV_NOHUGEPAGE);
}

Pool::Mapping::~Mapping() { ::munmap(base_, mapped_); }

Pool::Pool(std::uint32_t id, std::string name, std::size_t size_bytes)
    : id_(id), name_(std::move(name)), bytes_(size_bytes) {
  assert(id_ != 0 && "pool id 0 is reserved for the null rich pointer");
}

std::uint32_t Pool::round_chunk(std::uint32_t len) {
  // 64-byte granularity keeps chunks cache-line aligned and makes the
  // segregated free lists effective.
  return (len + 63u) & ~63u;
}

RichPtr Pool::alloc(std::uint32_t length) {
  if (length == 0) return kNullRichPtr;
  const std::uint32_t rounded = round_chunk(length);

  std::uint32_t offset;
  auto it = free_lists_.find(rounded);
  if (it != free_lists_.end() && !it->second.empty()) {
    offset = it->second.back();
    it->second.pop_back();
  } else {
    if (bump_ + rounded > bytes_.size()) {
      ++failed_allocs_;
      return kNullRichPtr;
    }
    offset = bump_;
    bump_ += rounded;
    chunks_.resize(bump_ >> kGranuleShift);
    starts_.resize((chunks_.size() + 63) / 64);
  }

  const std::uint32_t g = offset >> kGranuleShift;
  chunks_[g] = Chunk{length, 1};
  starts_[g / 64] |= std::uint64_t{1} << (g % 64);
  ++chunks_live_;
  bytes_live_ += length;
  ++total_allocs_;
  return RichPtr{id_, offset, length, generation_};
}

const Pool::Chunk* Pool::chunk_at(std::uint32_t offset) const {
  const std::size_t g = offset >> kGranuleShift;
  if (offset % 64 != 0 || g >= chunks_.size() || chunks_[g].refs == 0)
    return nullptr;
  return &chunks_[g];
}

void Pool::addref(const RichPtr& p) {
  if (p.generation != generation_) return;
  Chunk* c = chunk_at(p.offset);
  assert(c != nullptr && "addref on a freed chunk");
  if (c != nullptr) ++c->refs;
}

bool Pool::release(const RichPtr& p) {
  if (p.generation != generation_) return false;  // stale: pool was reset
  Chunk* c = chunk_at(p.offset);
  if (c == nullptr) return false;
  if (--c->refs > 0) return false;
  bytes_live_ -= c->length;
  free_lists_[round_chunk(c->length)].push_back(p.offset);
  *c = Chunk{};
  const std::uint32_t g = p.offset >> kGranuleShift;
  starts_[g / 64] &= ~(std::uint64_t{1} << (g % 64));
  --chunks_live_;
  return true;
}

bool Pool::live(const RichPtr& p) const {
  if (p.pool != id_ || p.generation != generation_) return false;
  const Chunk* c = chunk_at(p.offset);
  return c != nullptr && c->length >= p.length;
}

std::optional<std::uint32_t> Pool::find_containing(const RichPtr& p) const {
  if (p.pool != id_ || p.generation != generation_ || !p.valid())
    return std::nullopt;
  const std::size_t g = p.offset >> kGranuleShift;
  if (g >= chunks_.size()) return std::nullopt;  // past bump_: no chunk
  // The nearest chunk start at or below the slice's granule is the only
  // chunk that can hold it.
  std::size_t w = g / 64;
  std::uint64_t bits = starts_[w] & (~std::uint64_t{0} >> (63 - g % 64));
  while (bits == 0) {
    if (w == 0) return std::nullopt;
    bits = starts_[--w];
  }
  const std::size_t base_g = w * 64 + 63 - std::countl_zero(bits);
  const std::uint64_t base = base_g << kGranuleShift;
  if (static_cast<std::uint64_t>(p.offset) + p.length >
      base + chunks_[base_g].length)
    return std::nullopt;
  return static_cast<std::uint32_t>(base);
}

RichPtr Pool::containing(const RichPtr& p) const {
  const auto base = find_containing(p);
  if (!base) return kNullRichPtr;
  return RichPtr{id_, *base, chunks_[*base >> kGranuleShift].length,
                 generation_};
}

void Pool::note_borrow(const RichPtr& p, std::uint32_t borrower) {
  const auto base = find_containing(p);
  if (!base) return;
  ++ledger_[borrower][*base];
  ++borrows_outstanding_;
}

bool Pool::note_return(const RichPtr& p, std::uint32_t borrower) {
  if (p.pool != id_ || p.generation != generation_) return false;
  auto lit = ledger_.find(borrower);
  if (lit == ledger_.end()) return false;
  const auto base = find_containing(p);
  if (!base) return false;
  auto eit = lit->second.find(*base);
  if (eit == lit->second.end()) return false;
  if (--eit->second == 0) lit->second.erase(eit);
  if (lit->second.empty()) ledger_.erase(lit);
  --borrows_outstanding_;
  return true;
}

std::size_t Pool::reclaim(std::uint32_t borrower) {
  auto lit = ledger_.find(borrower);
  if (lit == ledger_.end()) return 0;
  // Move out first: release() mutates chunks_ but not the ledger.
  auto loans = std::move(lit->second);
  ledger_.erase(lit);
  std::size_t reclaimed = 0;
  for (const auto& [offset, count] : loans) {
    borrows_outstanding_ -= count;
    for (std::uint32_t k = 0; k < count; ++k) {
      const Chunk* c = chunk_at(offset);
      if (c == nullptr) break;  // already gone; nothing stranded
      release(RichPtr{id_, offset, c->length, generation_});
      ++reclaimed;
    }
  }
  return reclaimed;
}

std::span<std::byte> Pool::write_view(const RichPtr& p) {
  assert(live(p) && "write through a stale or foreign rich pointer");
  return {bytes_.data() + p.offset, p.length};
}

bool Pool::dma_write(const RichPtr& p, std::span<const std::byte> data) {
  if (p.pool != id_ || p.generation != generation_) return false;
  if (data.size() > p.length) return false;
  if (static_cast<std::size_t>(p.offset) + p.length > bytes_.size())
    return false;
  std::copy(data.begin(), data.end(), bytes_.data() + p.offset);
  return true;
}

std::span<const std::byte> Pool::read_view(const RichPtr& p) const {
  if (p.pool != id_ || p.generation != generation_) return {};
  if (static_cast<std::size_t>(p.offset) + p.length > bytes_.size()) return {};
  return {bytes_.data() + p.offset, p.length};
}

void Pool::reset() {
  chunks_.clear();
  starts_.clear();
  chunks_live_ = 0;
  free_lists_.clear();
  ledger_.clear();
  borrows_outstanding_ = 0;
  bump_ = 0;
  bytes_live_ = 0;
  ++generation_;
}

Pool& PoolRegistry::create(const std::string& owner, const std::string& name,
                           std::size_t size_bytes) {
  const std::uint32_t id = next_id_++;
  auto pool = std::make_unique<Pool>(id, owner + "/" + name, size_bytes);
  Pool& ref = *pool;
  pools_.emplace(id, std::move(pool));
  return ref;
}

void PoolRegistry::destroy(std::uint32_t id) { pools_.erase(id); }

Pool* PoolRegistry::find(std::uint32_t id) {
  auto it = pools_.find(id);
  return it == pools_.end() ? nullptr : it->second.get();
}

const Pool* PoolRegistry::find(std::uint32_t id) const {
  auto it = pools_.find(id);
  return it == pools_.end() ? nullptr : it->second.get();
}

Pool* PoolRegistry::find_by_name(const std::string& name) {
  for (auto& [id, pool] : pools_) {
    const std::string& full = pool->name();  // "<owner>/<name>"
    if (full == name) return pool.get();
    const auto slash = full.rfind('/');
    if (slash != std::string::npos && full.compare(slash + 1, std::string::npos,
                                                   name) == 0) {
      return pool.get();
    }
  }
  return nullptr;
}

std::span<const std::byte> PoolRegistry::read(const RichPtr& p) const {
  const Pool* pool = find(p.pool);
  return pool ? pool->read_view(p) : std::span<const std::byte>{};
}

bool PoolRegistry::release(const RichPtr& p) {
  Pool* pool = find(p.pool);
  if (pool == nullptr) return false;
  const RichPtr full = pool->containing(p);
  if (!full.valid()) return false;
  pool->release(full);
  return true;
}

std::vector<Pool*> PoolRegistry::all() {
  std::vector<Pool*> out;
  out.reserve(pools_.size());
  for (auto& [id, pool] : pools_) out.push_back(pool.get());
  return out;
}

}  // namespace newtos::chan
