#include "inputs.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "bench_suite/suite.hpp"
#include "io/text_format.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace gridroute;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Independent sub-seed for the i-th instance of a family.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t family,
                       std::uint64_t i) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + family * 0x100000001b3ULL + i);
  return rng.next_u64();
}

/// Long two-pin nets on an N-layer board: pins on distinct cells, each
/// net's pins a Manhattan distance in [min_len, max_len] apart. The narrow
/// length band keeps the search work of a board close to its mean.
Problem open_random_board(std::uint64_t seed, int size, int layers, int nets,
                          int min_len, int max_len) {
  Problem p{Region(size, size, LayerStack(layers))};
  Rng rng(seed);
  std::unordered_set<int> used;
  auto free_cell = [&]() {
    for (;;) {
      const Point c{rng.next_int(1, size - 2), rng.next_int(1, size - 2)};
      if (!used.count(c.y * size + c.x)) return c;
    }
  };
  for (int n = 0; n < nets; ++n) {
    Net net;
    net.name = "L" + std::to_string(n);
    for (;;) {
      const Point a = free_cell();
      const Point b = free_cell();
      const int len = std::abs(a.x - b.x) + std::abs(a.y - b.y);
      if (len < min_len || len > max_len || a == b) continue;
      used.insert(a.y * size + a.x);
      used.insert(b.y * size + b.x);
      net.pins = {{a, Layer::kMetal1, true}, {b, Layer::kMetal1, true}};
      break;
    }
    p.add_net(std::move(net));
  }
  return p;
}

}  // namespace

std::vector<TextInput> congested_inputs(std::uint64_t seed,
                                        const std::string& examples_dir) {
  std::vector<TextInput> out;
  auto add = [&](std::string name, const Problem& p, int weight = 1) {
    out.push_back({std::move(name), problem_to_string(p), weight});
  };
  // Burstein-class boxes, sent twice per pass, are four fifths of the jobs:
  // their cost varies least from seed to seed, and the median job lands
  // among them rather than on a cheap instance of highly variable cost.
  for (int i = 0; i < 12; ++i)
    add("burstein" + std::to_string(i),
        suite::burstein_class_switchbox(sub_seed(seed, 1, i)).to_problem(), 2);
  const ChannelSpec deutsch = suite::deutsch_class_channel(sub_seed(seed, 2, 0), 96, 8);
  add("deutsch", deutsch.to_problem(deutsch.density() + 2));
  add("saturated",
      suite::random_switchbox(sub_seed(seed, 3, 0), 16, 12, 14, 4, 0.85)
          .to_problem());
  add("overfilled", suite::overfilled_switchbox(sub_seed(seed, 4, 0) % 1000)
                        .to_problem());

  // The repository's example texts, converted to the generic problem
  // format so every job parses the same way.
  const ChannelSpec channel =
      parse_channel_string(read_file(examples_dir + "/channel.txt"));
  add("example-channel", channel.to_problem(channel.density() + 1));
  add("example-switchbox",
      parse_switchbox_string(read_file(examples_dir + "/switchbox.txt"))
          .to_problem());
  add("example-macrocell",
      parse_problem_string(read_file(examples_dir + "/macrocell.txt")));
  return out;
}

std::vector<TextInput> open_board_inputs(std::uint64_t seed) {
  std::vector<TextInput> out;
  // The 4-layer boards go twice per pass, so the median job is one of
  // them whichever of the two shapes is slower.
  for (int i = 0; i < 3; ++i)
    out.push_back({"long4L-" + std::to_string(i),
                   problem_to_string(open_random_board(sub_seed(seed, 5, i),
                                                       128, 4, 64, 48, 80)),
                   2});
  for (int i = 0; i < 3; ++i)
    out.push_back({"tiled2L-" + std::to_string(i),
                   problem_to_string(
                       tiled_board(sub_seed(seed, 6, i), 16, 16, 8, 8))});
  return out;
}

std::vector<Problem> service_pool(std::uint64_t seed, int size) {
  // One small switchbox shape: a miss costs about the same at every seed.
  std::vector<Problem> pool;
  for (int i = 0; i < size; ++i)
    pool.push_back(
        suite::random_switchbox(sub_seed(seed, 8, i), 10, 8, 6, 3, 0.5)
            .to_problem());
  return pool;
}

Problem tiled_board(std::uint64_t seed, int cols, int rows, int tile_w,
                    int tile_h) {
  Problem p{Region(cols * tile_w, rows * tile_h)};
  Rng rng(seed);
  for (int ty = 0; ty < rows; ++ty)
    for (int tx = 0; tx < cols; ++tx) {
      Net net;
      net.name = "t" + std::to_string(ty * cols + tx);
      const int pins = rng.next_int(2, 3);
      while (static_cast<int>(net.pins.size()) < pins) {
        const Point c{tx * tile_w + rng.next_int(1, tile_w - 2),
                      ty * tile_h + rng.next_int(1, tile_h - 2)};
        bool taken = false;
        for (const Pin& q : net.pins) taken |= q.pos == c;
        if (!taken) net.pins.push_back({c, Layer::kMetal1, true});
      }
      p.add_net(std::move(net));
    }
  return p;
}

std::vector<ProblemEdit> eco_edits(std::uint64_t seed, const Problem& base,
                                   int tile_w, int tile_h, int count) {
  // A model of the session's problem, advanced edit by edit: which nets
  // are alive, where their pins sit, and which cells pins or obstacles
  // already claim.
  const int width = base.region().width();
  const int cols = width / tile_w;
  const int rows = base.region().height() / tile_h;
  struct ModelNet {
    std::vector<Point> pins;
    bool alive = true;
  };
  std::vector<ModelNet> nets;
  std::unordered_set<int> claimed;
  auto key = [&](Point c) { return c.y * width + c.x; };
  for (const Net& n : base.nets()) {
    ModelNet m;
    for (const Pin& pin : n.pins) {
      m.pins.push_back(pin.pos);
      claimed.insert(key(pin.pos));
    }
    nets.push_back(std::move(m));
  }

  Rng rng(sub_seed(seed, 9, 0));
  auto free_cell_in_tile = [&](int tile) {
    const int tx = tile % cols;
    const int ty = tile / cols;
    for (;;) {
      const Point c{tx * tile_w + rng.next_int(1, tile_w - 2),
                    ty * tile_h + rng.next_int(1, tile_h - 2)};
      if (!claimed.count(key(c))) return c;
    }
  };
  auto tile_of = [&](Point c) { return (c.y / tile_h) * cols + c.x / tile_w; };
  auto pick_alive = [&]() {
    for (;;) {
      const auto id = static_cast<NetId>(rng.next_below(nets.size()));
      if (nets[static_cast<size_t>(id)].alive) return id;
    }
  };

  std::vector<ProblemEdit> edits;
  int added = 0;
  while (static_cast<int>(edits.size()) < count) {
    ProblemEdit edit;
    const std::uint64_t kind = rng.next_below(10);
    if (kind < 4) {  // move one pin inside its own tile
      const NetId id = pick_alive();
      ModelNet& m = nets[static_cast<size_t>(id)];
      const int pin = static_cast<int>(rng.next_below(m.pins.size()));
      const Point to = free_cell_in_tile(tile_of(m.pins[pin]));
      claimed.erase(key(m.pins[pin]));
      claimed.insert(key(to));
      m.pins[pin] = to;
      edit.move_pins.push_back({id, pin, to});
    } else if (kind < 6) {  // drop a one-cell blockage on every layer
      const Point c = free_cell_in_tile(
          static_cast<int>(rng.next_below(cols * rows)));
      claimed.insert(key(c));
      edit.add_obstacles.push_back({Rect{c, c}, Layer::kMetal1, true});
    } else if (kind < 8) {  // add a two-pin local net
      const int tile = static_cast<int>(rng.next_below(cols * rows));
      ModelNet m;
      Net net;
      net.name = "eco" + std::to_string(added++);
      for (int k = 0; k < 2; ++k) {
        const Point c = free_cell_in_tile(tile);
        claimed.insert(key(c));
        m.pins.push_back(c);
        net.pins.push_back({c, Layer::kMetal1, true});
      }
      nets.push_back(std::move(m));
      edit.add_nets.push_back(std::move(net));
    } else {  // remove a net
      const NetId id = pick_alive();
      ModelNet& m = nets[static_cast<size_t>(id)];
      for (const Point c : m.pins) claimed.erase(key(c));
      m.alive = false;
      m.pins.clear();
      edit.remove_nets.push_back(id);
    }
    edits.push_back(std::move(edit));
  }
  return edits;
}

}  // namespace perfbench
