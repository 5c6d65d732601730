#include "src/support/rng.hpp"

namespace beepmis::support {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += kSplitMix64Gamma);
  z = (z ^ (z >> 30)) * kSplitMix64Mul1;
  z = (z ^ (z >> 27)) * kSplitMix64Mul2;
  return z ^ (z >> 31);
}

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) noexcept {
  // Lemire (2019): multiply-shift with rejection of the biased low range.
  using u128 = unsigned __int128;
  std::uint64_t x = (*this)();
  u128 m = static_cast<u128>(x) * static_cast<u128>(bound);
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<u128>(x) * static_cast<u128>(bound);
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::uniform01() noexcept {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

bool Rng::bernoulli_pow2(unsigned k) noexcept {
  if (k == 0) return true;
  if (k >= 64) return false;
  // Success iff the top k random bits are all zero: probability exactly 2^-k.
  return ((*this)() >> (64 - k)) == 0;
}

Rng Rng::derive_stream(std::uint64_t key) const noexcept {
  // Mix (seed, key) through two SplitMix64 rounds; streams for distinct keys
  // start from well-separated points of the SplitMix64 sequence.
  std::uint64_t sm = seed_ ^ (0x6a09e667f3bcc909ULL + key * 0x9e3779b97f4a7c15ULL);
  const std::uint64_t derived = splitmix64(sm) ^ splitmix64(sm);
  return Rng{derived};
}

namespace {
// The SplitMix64 avalanche alone (no sequence increment) — the body shared
// by the fast-path helpers below.
constexpr std::uint64_t kGolden = kSplitMix64Gamma;
constexpr std::uint64_t sm_avalanche(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * kSplitMix64Mul1;
  z = (z ^ (z >> 27)) * kSplitMix64Mul2;
  return z ^ (z >> 31);
}
}  // namespace

std::uint64_t counter_round_state(std::uint64_t master_seed,
                                  std::uint64_t round) noexcept {
  // Absorb each coordinate between full SplitMix64 avalanches so adjacent
  // coordinates land on unrelated keys. The round is absorbed before the
  // node so everything node-independent folds into this per-round prefix —
  // the kernel's per-vertex cost is then just counter_first_draw_at.
  std::uint64_t state = master_seed;
  state = splitmix64(state) ^ round;
  return splitmix64(state);
}

std::uint64_t counter_key(std::uint64_t master_seed, std::uint64_t node,
                          std::uint64_t round) noexcept {
  std::uint64_t state = counter_round_state(master_seed, round) ^ node;
  return splitmix64(state);
}

Rng counter_stream(std::uint64_t master_seed, std::uint64_t node,
                   std::uint64_t round) noexcept {
  return Rng{counter_key(master_seed, node, round)};
}

std::uint64_t counter_first_draw_at(std::uint64_t round_state,
                                    std::uint64_t node) noexcept {
  // Rng{key} seeds s_[0..3] from the SplitMix64 sequence at key, and the
  // first xoshiro256** output reads only s_[1] = avalanche(key + 2γ) — so
  // two avalanches plus the starmix reproduce counter_stream(...)() exactly
  // without materializing the generator.
  const std::uint64_t key = sm_avalanche((round_state ^ node) + kGolden);
  return rotl(sm_avalanche(key + 2 * kGolden) * 5, 7) * 9;
}

std::uint64_t counter_first_draw(std::uint64_t master_seed,
                                 std::uint64_t node,
                                 std::uint64_t round) noexcept {
  return counter_first_draw_at(counter_round_state(master_seed, round), node);
}

bool counter_bernoulli_pow2(std::uint64_t master_seed, std::uint64_t node,
                            std::uint64_t round, unsigned k) noexcept {
  if (k == 0) return true;
  if (k >= 64) return false;
  return (counter_first_draw(master_seed, node, round) >> (64 - k)) == 0;
}

}  // namespace beepmis::support
