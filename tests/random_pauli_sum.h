// Seeded generators shared by the Expectation(PauliSum) tests: a dense
// random state and a Pauli sum covering every shape the X-mask grouping
// meets (mixed I/X/Y/Z strings, strings sharing an X-mask with different
// Y/Z signs, repeated strings, an identity term).

#ifndef QDB_TESTS_RANDOM_PAULI_SUM_H_
#define QDB_TESTS_RANDOM_PAULI_SUM_H_

#include <vector>

#include "common/rng.h"
#include "linalg/random_unitary.h"
#include "ops/pauli.h"
#include "sim/state_vector.h"

namespace qdb {

inline StateVector RandomStateVector(int n, Rng& rng) {
  return StateVector::FromAmplitudes(RandomState(size_t{1} << n, rng))
      .ValueOrDie();
}

inline PauliSum RandomPauliSum(int n, int num_terms, Rng& rng) {
  PauliSum h(n);
  h.Add(rng.Uniform(-1.0, 1.0), PauliString(n));  // Identity.
  std::vector<PauliString> drawn;
  for (int k = 0; k < num_terms; ++k) {
    const double c = rng.Uniform(-1.0, 1.0);
    const uint64_t shape = drawn.empty() ? 0 : rng.UniformInt(uint64_t{4});
    if (shape == 1) {  // Repeat a string.
      h.Add(c, drawn[rng.UniformInt(uint64_t{drawn.size()})]);
      continue;
    }
    PauliString p(n);
    if (shape == 2) {
      // A sibling of a drawn string: same X-mask (X↔Y, I↔Z swaps keep it),
      // different signs and i-power.
      p = drawn[rng.UniformInt(uint64_t{drawn.size()})];
      for (int q = 0; q < n; ++q) {
        if (rng.UniformInt(uint64_t{2}) == 0) continue;
        static constexpr PauliOp kSwap[] = {PauliOp::kZ, PauliOp::kY,
                                            PauliOp::kX, PauliOp::kI};
        p.set_op(q, kSwap[static_cast<int>(p.op(q))]);
      }
    } else {
      // Every third fresh string is diagonal, so the X = 0 group is large.
      const bool diagonal = k % 3 == 0;
      for (int q = 0; q < n; ++q) {
        const uint64_t op = rng.UniformInt(uint64_t{4});
        p.set_op(q, diagonal ? (op < 2 ? PauliOp::kI : PauliOp::kZ)
                             : static_cast<PauliOp>(op));
      }
    }
    drawn.push_back(p);
    h.Add(c, p);
  }
  return h;
}

}  // namespace qdb

#endif  // QDB_TESTS_RANDOM_PAULI_SUM_H_
