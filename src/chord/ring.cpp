#include "chord/ring.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <limits>

namespace p2plb::chord {

namespace {

/// Ring-order tails longer than this (bulk set-up) give their capacity
/// back after the merge; churn-sized ones keep it for the next join.
constexpr std::size_t kTailKeep = 1024;

}  // namespace

void Ring::SlotTable::insert(Key id, std::uint32_t slot) {
  P2PLB_ASSERT(slot != kNone);
  if (2 * (size_ + 1) > cells_.size()) grow();
  const std::size_t mask = cells_.size() - 1;
  std::size_t i = home(id);
  while (cells_[i].slot != kNone) {
    P2PLB_ASSERT(cells_[i].id != id);
    i = (i + 1) & mask;
  }
  cells_[i] = Cell{id, slot};
  ++size_;
}

void Ring::SlotTable::erase(Key id) {
  const std::size_t mask = cells_.size() - 1;
  std::size_t hole = home(id);
  while (cells_[hole].id != id || cells_[hole].slot == kNone) {
    P2PLB_ASSERT(cells_[hole].slot != kNone);
    hole = (hole + 1) & mask;
  }
  // Backward shift: pull each later cell of the probe run into the hole
  // unless its home lies cyclically in (hole, j], where it must stay.
  for (std::size_t j = (hole + 1) & mask; cells_[j].slot != kNone;
       j = (j + 1) & mask) {
    const std::size_t h = home(cells_[j].id);
    const bool stays = hole <= j ? (hole < h && h <= j) : (hole < h || h <= j);
    if (stays) continue;
    cells_[hole] = cells_[j];
    hole = j;
  }
  cells_[hole] = Cell{};
  --size_;
}

void Ring::SlotTable::grow() {
  const std::size_t capacity =
      std::max<std::size_t>(16, 2 * cells_.size());
  std::vector<Cell> old(capacity);
  old.swap(cells_);
  shift_ = static_cast<unsigned>(64 - std::countr_zero(capacity));
  const std::size_t mask = capacity - 1;
  for (const Cell& c : old) {
    if (c.slot == kNone) continue;
    std::size_t i = home(c.id);
    while (cells_[i].slot != kNone) i = (i + 1) & mask;
    cells_[i] = c;
  }
}

NodeIndex Ring::add_node(double capacity, std::uint32_t attachment) {
  P2PLB_REQUIRE(capacity > 0.0);
  P2PLB_REQUIRE_MSG(nodes_.size() < std::numeric_limits<NodeIndex>::max(),
                    "node index space exhausted");
  Node n;
  n.capacity = capacity;
  n.attachment = attachment;
  nodes_.push_back(std::move(n));
  ++live_nodes_;
  return static_cast<NodeIndex>(nodes_.size() - 1);
}

Node& Ring::mutable_node(NodeIndex i) {
  P2PLB_REQUIRE(i < nodes_.size());
  return nodes_[i];
}

void Ring::add_virtual_server(NodeIndex owner, Key id) {
  const common::ShardGuard shard(ring_shard_);
  Node& n = mutable_node(owner);
  P2PLB_REQUIRE_MSG(n.alive, "cannot add a virtual server to a dead node");
  P2PLB_REQUIRE_MSG(!has_server(id), "virtual server id collision");
  std::uint32_t slot;
  if (!vs_free_.empty()) {
    slot = vs_free_.back();
    vs_free_.pop_back();
    vs_id_[slot] = id;
    vs_owner_[slot] = owner;
    vs_load_[slot] = 0.0;
    vs_live_[slot] = 1;
  } else {
    slot = static_cast<std::uint32_t>(vs_id_.size());
    vs_id_.push_back(id);
    vs_owner_.push_back(owner);
    vs_load_.push_back(0.0);
    vs_live_.push_back(1);
  }
  vs_slot_.insert(id, slot);
  ++vs_count_;
  order_tail_.push_back(OrderEntry{id, slot});
  n.servers.insert(std::lower_bound(n.servers.begin(), n.servers.end(), id),
                   id);
}

Key Ring::add_random_virtual_server(NodeIndex owner, Rng& rng) {
  for (;;) {
    const Key id = static_cast<Key>(rng() >> 32);
    if (!has_server(id)) {
      add_virtual_server(owner, id);
      return id;
    }
  }
}

void Ring::remove_virtual_server(Key id) {
  const common::ShardGuard shard(ring_shard_);
  const std::uint32_t slot = slot_checked(id);
  Node& n = mutable_node(vs_owner_[slot]);
  std::erase(n.servers, id);
  vs_live_[slot] = 0;
  vs_free_.push_back(slot);
  vs_slot_.erase(id);
  --vs_count_;
  order_dead_ = true;
}

void Ring::remove_node(NodeIndex node) {
  const common::ShardGuard shard(ring_shard_);
  Node& n = mutable_node(node);
  P2PLB_REQUIRE_MSG(n.alive, "node already removed");
  for (const Key id : n.servers) {
    const std::uint32_t slot = slot_checked(id);
    vs_live_[slot] = 0;
    vs_free_.push_back(slot);
    vs_slot_.erase(id);
    --vs_count_;
  }
  if (!n.servers.empty()) order_dead_ = true;
  n.servers.clear();
  n.alive = false;
  --live_nodes_;
}

void Ring::transfer_virtual_server(Key id, NodeIndex new_owner) {
  const std::uint32_t slot = slot_checked(id);
  Node& dst = mutable_node(new_owner);
  P2PLB_REQUIRE_MSG(dst.alive, "cannot transfer to a dead node");
  if (vs_owner_[slot] == new_owner) return;
  Node& src = mutable_node(vs_owner_[slot]);
  std::erase(src.servers, id);
  dst.servers.insert(
      std::lower_bound(dst.servers.begin(), dst.servers.end(), id), id);
  vs_owner_[slot] = new_owner;  // ring order untouched: ids are unchanged
}

void Ring::ensure_order() const {
  if (order_dead_) {
    const auto dead = [this](const OrderEntry& e) {
      return vs_live_[e.slot] == 0 || vs_id_[e.slot] != e.id;
    };
    std::erase_if(order_, dead);
    std::erase_if(order_tail_, dead);
  }
  const auto by_id = [](const OrderEntry& a, const OrderEntry& b) {
    return a.id < b.id;
  };
  if (!order_tail_.empty()) {
    std::sort(order_tail_.begin(), order_tail_.end(), by_id);
    if (order_.empty()) {
      order_.swap(order_tail_);
    } else {
      const auto sorted = static_cast<std::ptrdiff_t>(order_.size());
      order_.insert(order_.end(), order_tail_.begin(), order_tail_.end());
      std::inplace_merge(order_.begin(), order_.begin() + sorted,
                         order_.end(), by_id);
    }
    order_tail_.clear();
    if (order_tail_.capacity() > kTailKeep) order_tail_.shrink_to_fit();
  }
  if (order_dead_) {
    // An id removed and re-added to the same slot before this query is
    // live in both its old entry and its new one: keep one.
    const auto same_id = [](const OrderEntry& a, const OrderEntry& b) {
      return a.id == b.id;
    };
    order_.erase(std::unique(order_.begin(), order_.end(), same_id),
                 order_.end());
    order_dead_ = false;
  }
  P2PLB_ASSERT(order_.size() == vs_count_);
}

VirtualServer Ring::server(Key id) const {
  const std::uint32_t slot = slot_checked(id);
  return VirtualServer{vs_id_[slot], vs_owner_[slot], vs_load_[slot]};
}

VirtualServer Ring::successor(Key k) const {
  P2PLB_REQUIRE_MSG(vs_count_ > 0, "successor() on an empty ring");
  ensure_order();
  const auto it = std::lower_bound(
      order_.begin(), order_.end(), k,
      [](const OrderEntry& e, Key key) { return e.id < key; });
  const OrderEntry& e = it != order_.end() ? *it : order_.front();
  return VirtualServer{e.id, vs_owner_[e.slot], vs_load_[e.slot]};
}

Key Ring::predecessor_key(Key id) const {
  ensure_order();
  const auto it = std::lower_bound(
      order_.begin(), order_.end(), id,
      [](const OrderEntry& e, Key k) { return e.id < k; });
  P2PLB_REQUIRE_MSG(it != order_.end() && it->id == id,
                    "no such virtual server");
  return (it == order_.begin() ? order_.back() : *std::prev(it)).id;
}

std::uint64_t Ring::arc_size(Key id) const {
  const Key pred = predecessor_key(id);
  if (pred == id) return kSpaceSize;  // singleton ring owns everything
  return distance_cw(pred, id);
}

bool Ring::arc_contains_region(Key holder, Key lo, std::uint64_t len) const {
  P2PLB_REQUIRE(len >= 1);
  if (len > kSpaceSize) return false;
  const std::uint64_t arc = arc_size(holder);
  if (arc >= kSpaceSize) return true;
  if (len > arc) return false;
  // Arc is (pred, holder]; region is [lo, lo+len).  Containment needs both
  // endpoints inside and no wrap mismatch; with len <= arc it suffices
  // that lo and lo+len-1 both lie in (pred, holder].
  const Key pred = predecessor_key(holder);
  const Key last = static_cast<Key>(lo + static_cast<std::uint32_t>(len - 1));
  return in_oc(pred, holder, lo) && in_oc(pred, holder, last) &&
         distance_cw(pred, lo) <= distance_cw(pred, last);
}

std::vector<Key> Ring::server_ids() const {
  ensure_order();
  std::vector<Key> out;
  out.reserve(order_.size());
  for (const OrderEntry& e : order_) out.push_back(e.id);
  return out;
}

std::vector<NodeIndex> Ring::live_nodes() const {
  std::vector<NodeIndex> out;
  out.reserve(live_nodes_);
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (nodes_[i].alive) out.push_back(static_cast<NodeIndex>(i));
  return out;
}

void Ring::set_load(Key id, double load) {
  P2PLB_REQUIRE(load >= 0.0);
  vs_load_[slot_checked(id)] = load;
}

double Ring::node_load(NodeIndex i) const {
  const Node& n = node(i);
  double total = 0.0;
  for (const Key id : n.servers) total += vs_load_[slot_checked(id)];
  return total;
}

std::optional<double> Ring::node_min_server_load(NodeIndex i) const {
  const Node& n = node(i);
  if (n.servers.empty()) return std::nullopt;
  double best = std::numeric_limits<double>::infinity();
  for (const Key id : n.servers)
    best = std::min(best, vs_load_[slot_checked(id)]);
  return best;
}

double Ring::total_load() const {
  // Ring order, not slot order: float addition is order-sensitive and
  // this sum is compared against protocol-side aggregates in tests.
  ensure_order();
  double total = 0.0;
  for (const OrderEntry& e : order_) total += vs_load_[e.slot];
  return total;
}

double Ring::total_capacity() const {
  double total = 0.0;
  for (const Node& n : nodes_)
    if (n.alive) total += n.capacity;
  return total;
}

double Ring::min_server_load() const {
  double best = std::numeric_limits<double>::infinity();
  for (std::uint32_t slot = 0; slot < vs_id_.size(); ++slot)
    if (vs_live_[slot] != 0) best = std::min(best, vs_load_[slot]);
  return vs_count_ == 0 ? 0.0 : best;
}

}  // namespace p2plb::chord
