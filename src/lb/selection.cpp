#include "lb/selection.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>

#include "common/error.h"

namespace p2plb::lb {

namespace {

struct Item {
  chord::Key id;
  double load;
};

std::vector<chord::Key> exact_select(const std::vector<Item>& items,
                                     double excess) {
  // Enumerate all subsets; pick the feasible one with the smallest sum,
  // breaking ties toward fewer servers (fewer leave/join operations).
  const std::size_t n = items.size();
  P2PLB_ASSERT(n <= kExactLimit);
  const std::uint32_t subsets = 1u << n;
  double best_sum = std::numeric_limits<double>::infinity();
  int best_popcount = 0;
  std::uint32_t best_mask = 0;
  bool found = false;
  // sums[mask] is the mask's items added in index order.  Its highest
  // item is added last, to the sum of the others, so one addition per
  // subset repeats that order bit for bit.
  std::vector<double> sums(subsets);
  for (std::uint32_t mask = 1; mask < subsets; ++mask) {
    const auto high = static_cast<std::size_t>(std::bit_width(mask) - 1);
    const double sum = sums[mask ^ (1u << high)] + items[high].load;
    sums[mask] = sum;
    if (sum + 1e-12 < excess) continue;  // infeasible
    const int pc = std::popcount(mask);
    if (!found || sum < best_sum ||
        (sum == best_sum && pc < best_popcount)) {
      found = true;
      best_sum = sum;
      best_mask = mask;
      best_popcount = pc;
    }
  }
  std::vector<chord::Key> out;
  if (!found) {  // excess exceeds total load: shed everything
    for (const Item& it : items) out.push_back(it.id);
    return out;
  }
  for (std::size_t k = 0; k < n; ++k)
    if (best_mask & (1u << k)) out.push_back(items[k].id);
  return out;
}

std::vector<chord::Key> greedy_select(std::vector<Item> items, double excess) {
  std::sort(items.begin(), items.end(),
            [](const Item& a, const Item& b) { return a.load < b.load; });
  // Candidate A: ascending-load prefix until the excess is covered.
  std::vector<chord::Key> prefix;
  double prefix_sum = 0.0;
  for (const Item& it : items) {
    if (prefix_sum >= excess) break;
    prefix.push_back(it.id);
    prefix_sum += it.load;
  }
  // Candidate B: the single lightest server that alone covers the excess.
  const auto single = std::find_if(
      items.begin(), items.end(),
      [excess](const Item& it) { return it.load >= excess; });
  if (single != items.end() &&
      (prefix_sum < excess || single->load < prefix_sum)) {
    return {single->id};
  }
  return prefix;
}

}  // namespace

std::vector<chord::Key> select_servers_to_shed(const chord::Ring& ring,
                                               chord::NodeIndex node,
                                               double excess,
                                               SelectionPolicy policy) {
  P2PLB_REQUIRE_MSG(excess > 0.0, "only heavy nodes shed servers");
  const chord::Node& n = ring.node(node);
  if (n.servers.empty()) return {};
  std::vector<Item> items;
  items.reserve(n.servers.size());
  for (const chord::Key id : n.servers)
    items.push_back({id, ring.server_load(id)});

  if (policy == SelectionPolicy::kExact && items.size() <= kExactLimit)
    return exact_select(items, excess);
  return greedy_select(std::move(items), excess);
}

double total_load_of(const chord::Ring& ring,
                     const std::vector<chord::Key>& servers) {
  double total = 0.0;
  for (const chord::Key id : servers) total += ring.server_load(id);
  return total;
}

}  // namespace p2plb::lb
