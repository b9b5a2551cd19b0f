// Shared differential-test fixture: normalized kitgen samples and a
// signature set in the shape the compiler emits over them.
#pragma once

#include <string>
#include <vector>

#include "engine/engine.h"

namespace kizzle::testing {

// 18 raw-normalized packed samples: Nuclear, RIG and Angler, six each,
// from a fixed seed.
std::vector<std::string> mixed_kitgen_samples();

// Escaped literal chunks (16–47 bytes) cut from `samples` — each present
// in its donor, absent from most other samples — named "chunk<i>", plus a
// class-heavy pattern, a 2-byte literal with no usable prefilter literal,
// a literal-prefixed class run and a literal that never occurs.
std::vector<engine::Database::Spec> mixed_signature_specs(
    const std::vector<std::string>& samples);

}  // namespace kizzle::testing
