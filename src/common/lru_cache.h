// Byte-bounded LRU cache used by the query service's result cache.
//
// Not internally synchronized: the owner serializes access (the service
// holds its own mutex across lookup + insert so hit/miss accounting stays
// consistent with the cache state).

#ifndef RDFMR_COMMON_LRU_CACHE_H_
#define RDFMR_COMMON_LRU_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>

namespace rdfmr {

/// \brief String-keyed LRU cache bounded by the sum of per-entry charges.
///
/// A charge is supplied with each Put (bytes for result payloads, 1 for
/// count-bounded caches). Inserting evicts least-recently-used entries
/// until the total charge fits the capacity; an entry larger than the
/// whole capacity is refused (returns false).
template <typename V>
class LruCache {
 public:
  explicit LruCache(uint64_t capacity) : capacity_(capacity) {}

  /// \brief Looks up `key`, refreshing its recency. Returns nullptr on
  /// miss. The pointer is invalidated by any later Put/Erase/Clear.
  const V* Get(const std::string& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    entries_.splice(entries_.begin(), entries_, it->second);
    return &it->second->value;
  }

  /// \brief Inserts or replaces `key`. Returns false (cache unchanged
  /// beyond removing any previous entry) when `charge` alone exceeds the
  /// capacity.
  bool Put(std::string key, V value, uint64_t charge) {
    Erase(key);
    if (charge > capacity_) return false;
    entries_.push_front(Entry{std::move(key), std::move(value), charge});
    index_[entries_.front().key] = entries_.begin();
    used_ += charge;
    while (used_ > capacity_ && !entries_.empty()) {
      EraseEntry(std::prev(entries_.end()));
    }
    return true;
  }

  /// \brief Evicts the least-recently-used entry, returning its charge (0
  /// when empty). ShardedLruCache drives its global-budget eviction with
  /// this, one entry at a time across shards.
  uint64_t EvictOne() {
    if (entries_.empty()) return 0;
    auto it = std::prev(entries_.end());
    const uint64_t charge = it->charge;
    EraseEntry(it);
    return charge;
  }

  /// \brief Removes `key` if present; returns whether it was present.
  bool Erase(const std::string& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return false;
    EraseEntry(it->second);
    return true;
  }

  /// \brief Removes every entry whose key satisfies `pred` (dataset-drop
  /// invalidation). Returns the number removed.
  size_t EraseIf(const std::function<bool(const std::string&)>& pred) {
    size_t removed = 0;
    for (auto it = entries_.begin(); it != entries_.end();) {
      auto next = std::next(it);
      if (pred(it->key)) {
        EraseEntry(it);
        ++removed;
      }
      it = next;
    }
    return removed;
  }

  void Clear() {
    entries_.clear();
    index_.clear();
    used_ = 0;
  }

  size_t size() const { return entries_.size(); }
  uint64_t used() const { return used_; }
  uint64_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::string key;
    V value;
    uint64_t charge;
  };
  using EntryList = std::list<Entry>;

  void EraseEntry(typename EntryList::iterator it) {
    used_ -= it->charge;
    index_.erase(it->key);
    entries_.erase(it);
  }

  uint64_t capacity_;
  uint64_t used_ = 0;
  EntryList entries_;  // front = most recently used
  std::unordered_map<std::string, typename EntryList::iterator> index_;
};

}  // namespace rdfmr

#endif  // RDFMR_COMMON_LRU_CACHE_H_
