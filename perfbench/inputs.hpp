#pragma once

// Seeded input generators for the four workloads. Every input is a pure
// function of the workload seed; the router only ever sees the generated
// problems (as text for the library workloads).

#include <cstdint>
#include <string>
#include <vector>

#include "core/delta.hpp"
#include "problem/problem.hpp"

namespace perfbench {

/// One library job input: a name for reports, the problem text the job
/// parses, and how many times one pass of the job stream sends it.
struct TextInput {
  std::string name;
  std::string text;
  int weight = 1;
};

/// congested_batch: Burstein-class switchboxes (weight 2), a Deutsch-class
/// channel, a near-saturated random switchbox, the overfilled switchbox,
/// plus the repository's examples/data texts read from `examples_dir`.
std::vector<TextInput> congested_inputs(std::uint64_t seed,
                                        const std::string& examples_dir);

/// open_board: long random nets on 4-layer 128x128 boards (weight 2), and
/// hundreds of local nets on 2-layer tiled boards.
std::vector<TextInput> open_board_inputs(std::uint64_t seed);

/// service_mix: the pool of small classic instances the open loop draws
/// from (pool order is the popularity rank).
std::vector<gridroute::Problem> service_pool(std::uint64_t seed, int size);

/// A 2-layer board of `cols` x `rows` tiles, each tile_w x tile_h cells,
/// one local net per tile with 2-3 pins at seeded positions inside the tile
/// (one-cell margin).
gridroute::Problem tiled_board(std::uint64_t seed, int cols, int rows,
                               int tile_w, int tile_h);

/// eco_session: a seeded stream of small local edits against `base`, each
/// valid against the problem the previous edits produced: pin moves,
/// obstacle adds, net adds and net removes, all confined to one tile.
std::vector<gridroute::ProblemEdit> eco_edits(std::uint64_t seed,
                                              const gridroute::Problem& base,
                                              int tile_w, int tile_h,
                                              int count);

}  // namespace perfbench
