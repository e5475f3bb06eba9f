// The Chord ring with virtual servers (Section 2).
//
// Physical DHT nodes host multiple virtual servers (VS); each VS owns the
// arc (predecessor, id] of the 32-bit identifier space.  Moving a VS
// between physical nodes (the paper's load-movement primitive) changes
// only the VS's host: the ring structure, and therefore every arc, is
// unaffected -- which is why the paper models it as a leave+join pair.
//
// This class is the authoritative ring state used by the tree, the
// balancer and the experiments.  It is a simulator: operations execute
// immediately and atomically (the message-level behaviour is modelled by
// the sim/ layer where experiments need latency).
//
// Storage is structure-of-arrays: a virtual server is a *slot* into
// parallel id/owner/load columns, recycled through an explicit free list
// under churn.  Key->slot resolution is a flat open-addressing table
// (linear probing, load factor <= 1/2, no iteration API -- hash order
// cannot leak into any output).  Ring order is one sorted array of
// {id, slot} pairs kept up to date incrementally: adds queue in an
// unsorted tail that the next ordered query sorts and merges in, and
// removals are dropped by one filtering pass, so a join or leave costs
// O(S) rather than a full O(S log S) re-sort, and successor /
// predecessor / arc queries are one binary search over contiguous ids.
// VirtualServer remains the value type queries return -- materialized
// from the columns on demand.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/thread_safety.h"
#include "chord/id.h"

namespace p2plb::chord {

/// Dense index of a physical DHT node.  Stable across node removal
/// (removed nodes leave a tombstone).
using NodeIndex = std::uint32_t;

/// A physical DHT node.
struct Node {
  /// Relative capacity (the paper's Gnutella-like profile spans 1..10^4).
  double capacity = 1.0;
  /// Attachment vertex in the physical topology (kNoAttachment if the
  /// experiment runs without a topology).
  std::uint32_t attachment = kNoAttachment;
  /// False once the node has left or crashed.
  bool alive = true;
  /// Ids of the virtual servers this node currently hosts, kept sorted
  /// ascending.  The order is an invariant, not a convenience: balancing
  /// samples reporters from this vector (aggregate_lbi), so if it
  /// depended on the order transfers were *applied*, the timed and
  /// synchronous controllers would drift apart after the first round.
  std::vector<Key> servers;

  static constexpr std::uint32_t kNoAttachment = 0xFFFFFFFFu;
};

/// A virtual server: one contiguous arc of the identifier space.
/// Returned by value -- a snapshot of one slot of the ring's columns.
struct VirtualServer {
  Key id = 0;
  NodeIndex owner = 0;
  /// Abstract load (storage / bandwidth / CPU -- the scheme is agnostic).
  double load = 0.0;
};

/// The simulated Chord ring.
class Ring {
 public:
  Ring() = default;

  // --- membership -------------------------------------------------------

  /// Add a physical node with the given capacity (> 0) and optional
  /// topology attachment.  Returns its index.
  // p2plb: holds(ring_shard_)
  NodeIndex add_node(double capacity,
                     std::uint32_t attachment = Node::kNoAttachment);

  /// Place a new virtual server with the exact id, owned by `owner`.
  /// Throws if the id is already taken or the owner is not alive.
  void add_virtual_server(NodeIndex owner, Key id);

  /// Place a new virtual server at a fresh uniformly-random id.
  Key add_random_virtual_server(NodeIndex owner, Rng& rng);

  /// Remove one virtual server (its arc is absorbed by the successor).
  void remove_virtual_server(Key id);

  /// Crash/leave: removes the node's virtual servers and marks it dead.
  void remove_node(NodeIndex node);

  /// Move a virtual server to a new live host.  Ring arcs are unchanged.
  void transfer_virtual_server(Key id, NodeIndex new_owner);  // p2plb: holds(ring_shard_)

  // --- queries ----------------------------------------------------------

  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] std::size_t live_node_count() const noexcept {
    return live_nodes_;
  }
  [[nodiscard]] std::size_t virtual_server_count() const noexcept {
    return vs_count_;
  }

  [[nodiscard]] const Node& node(NodeIndex i) const {
    P2PLB_REQUIRE(i < nodes_.size());
    return nodes_[i];
  }

  [[nodiscard]] VirtualServer server(Key id) const;
  [[nodiscard]] bool has_server(Key id) const {
    return vs_slot_.find(id) != SlotTable::kNone;
  }

  /// O(1) column reads, for the per-entry hot paths that used to pay a
  /// map find per access.  Both require the id to exist.
  [[nodiscard]] double server_load(Key id) const {
    return vs_load_[slot_checked(id)];
  }
  [[nodiscard]] NodeIndex server_owner(Key id) const {
    return vs_owner_[slot_checked(id)];
  }

  /// The virtual server whose arc contains `k` (first id clockwise from
  /// k, inclusive).  Requires a non-empty ring.
  [[nodiscard]] VirtualServer successor(Key k) const;

  /// Id of the predecessor virtual server of `id` (the id counter-
  /// clockwise-adjacent on the ring).  With a single VS this is itself.
  [[nodiscard]] Key predecessor_key(Key id) const;

  /// Number of keys in the arc (pred, id] owned by this virtual server.
  /// A singleton ring owns the whole space (2^32).
  [[nodiscard]] std::uint64_t arc_size(Key id) const;

  /// arc_size / 2^32.
  [[nodiscard]] double arc_fraction(Key id) const {
    return static_cast<double>(arc_size(id)) /
           static_cast<double>(kSpaceSize);
  }

  /// Whether the arc (pred(holder), holder] fully contains the region
  /// [lo, lo+len) -- the K-nary tree leaf test.
  [[nodiscard]] bool arc_contains_region(Key holder, Key lo,
                                         std::uint64_t len) const;

  /// All virtual-server ids in ring order (ascending key).
  [[nodiscard]] std::vector<Key> server_ids() const;

  /// Iterate over all virtual servers in ring order.
  template <typename Fn>
  void for_each_server(Fn&& fn) const {
    ensure_order();
    for (const OrderEntry& e : order_)
      fn(VirtualServer{e.id, vs_owner_[e.slot], vs_load_[e.slot]});
  }

  /// Live node indices, ascending.
  [[nodiscard]] std::vector<NodeIndex> live_nodes() const;

  // --- load -------------------------------------------------------------

  /// Set the load carried by a virtual server (>= 0).
  void set_load(Key id, double load);  // p2plb: holds(ring_shard_)

  /// Total load over a node's virtual servers.
  [[nodiscard]] double node_load(NodeIndex i) const;

  /// Minimum virtual-server load on a node; nullopt if it hosts none.
  [[nodiscard]] std::optional<double> node_min_server_load(NodeIndex i) const;

  /// Sum of all virtual-server loads in the system.
  [[nodiscard]] double total_load() const;
  /// Sum of live nodes' capacities.
  [[nodiscard]] double total_capacity() const;
  /// Smallest virtual-server load in the system (0 if no servers).
  [[nodiscard]] double min_server_load() const;

 private:
  /// Key -> slot, open addressing with linear probing and backward-shift
  /// erase.  Lookup, insert and erase only: it has no iteration API, so
  /// no output can depend on hash order.
  class SlotTable {
   public:
    static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

    /// The slot holding `id`, or kNone.
    [[nodiscard]] std::uint32_t find(Key id) const {
      if (size_ == 0) return kNone;  // also keeps an empty table unhashed
      const std::size_t mask = cells_.size() - 1;
      for (std::size_t i = home(id);; i = (i + 1) & mask) {
        const Cell& c = cells_[i];
        if (c.slot == kNone || c.id == id) return c.slot;
      }
    }
    /// Requires `id` absent and `slot` != kNone.
    void insert(Key id, std::uint32_t slot);
    /// Requires `id` present.
    void erase(Key id);

   private:
    struct Cell {
      Key id = 0;
      std::uint32_t slot = kNone;
    };
    /// Fibonacci hashing: the top bits of id * 2^64/phi.  shift_ is
    /// 64 - log2(capacity), at most 60 (capacity >= 16).
    [[nodiscard]] std::size_t home(Key id) const {
      return static_cast<std::size_t>(
          (static_cast<std::uint64_t>(id) * 0x9E3779B97F4A7C15ull) >> shift_);
    }
    void grow();

    std::vector<Cell> cells_;  // power-of-two size, or empty
    std::size_t size_ = 0;
    unsigned shift_ = 0;
  };

  /// One ring-order entry.  It is live iff its slot is live and still
  /// holds this id (a removed slot may since have been recycled).
  struct OrderEntry {
    Key id;
    std::uint32_t slot;
  };

  Node& mutable_node(NodeIndex i);
  [[nodiscard]] std::uint32_t slot_checked(Key id) const {
    const std::uint32_t slot = vs_slot_.find(id);
    P2PLB_REQUIRE_MSG(slot != SlotTable::kNone, "no such virtual server");
    return slot;
  }
  /// Fold pending adds and removals into the ring order.
  void ensure_order() const;  // p2plb: holds(ring_shard_)

  /// Ownership domain of the whole ring state: under a sharded engine
  /// every mutation of the columns below must come from the shard that
  /// owns this ring (the queries stay wait-free reads).
  common::ShardCapability ring_shard_;

  std::vector<Node> nodes_;  // p2plb: shared(ring_shard_)
  std::size_t live_nodes_ = 0;  // p2plb: shared(ring_shard_)

  // Virtual-server columns, indexed by slot.  A slot is live until its
  // VS is removed, then parked on vs_free_ for reuse by the next add.
  std::vector<Key> vs_id_;          // p2plb: shared(ring_shard_)
  std::vector<NodeIndex> vs_owner_;  // p2plb: shared(ring_shard_)
  std::vector<double> vs_load_;      // p2plb: shared(ring_shard_)
  std::vector<std::uint8_t> vs_live_;  // p2plb: shared(ring_shard_)
  std::vector<std::uint32_t> vs_free_ P2PLB_GUARDED_BY(ring_shard_);
  std::size_t vs_count_ = 0;  // p2plb: shared(ring_shard_)
  SlotTable vs_slot_;  // p2plb: shared(ring_shard_)
  // Ring order: entries sorted by id.  Between ordered queries it may
  // still hold removed servers' entries (order_dead_ is set), and adds
  // wait unsorted in order_tail_; ensure_order() folds both in.
  mutable std::vector<OrderEntry> order_;  // p2plb: shared(ring_shard_)
  mutable std::vector<OrderEntry> order_tail_;  // p2plb: shared(ring_shard_)
  mutable bool order_dead_ = false;  // p2plb: shared(ring_shard_)
};

}  // namespace p2plb::chord
