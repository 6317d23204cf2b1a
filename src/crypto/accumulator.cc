#include "crypto/accumulator.h"

#include "common/logging.h"

namespace vf2boost {

void NaiveCipherAccumulator::Add(const Cipher& c) {
  if (sum_.count == 0) {
    exponent_ = c.exponent;
    backend_->Fold(&sum_, c.data);
    return;
  }
  ++stats_.hadds;
  if (c.exponent == exponent_) {
    backend_->Fold(&sum_, c.data);
    return;
  }
  ++stats_.scalings;
  if (c.exponent < exponent_) {
    backend_->Fold(&sum_, backend_->ScaleTo(c, exponent_).data);
    return;
  }
  // The running sum is the lower side: it leaves the workspace, is scaled
  // up, and restarts it (count 0 keeps the workspace's storage).
  const Cipher running{backend_->Materialize(sum_), exponent_};
  sum_.count = 0;
  backend_->Fold(&sum_, backend_->ScaleTo(running, c.exponent).data);
  backend_->Fold(&sum_, c.data);
  exponent_ = c.exponent;
}

Cipher NaiveCipherAccumulator::Finalize() {
  if (sum_.count > 0) return Cipher{backend_->Materialize(sum_), exponent_};
  return backend_->EncryptPublicAt(0.0, backend_->codec().min_exponent());
}

ReorderedCipherAccumulator::ReorderedCipherAccumulator(
    const CipherBackend* backend)
    : CipherAccumulator(backend),
      workspaces_(backend->codec().num_exponents()),
      min_exponent_(backend->codec().min_exponent()) {}

void ReorderedCipherAccumulator::Add(const Cipher& c) {
  const int slot = c.exponent - min_exponent_;
  VF2_CHECK(slot >= 0 && slot < static_cast<int>(workspaces_.size()))
      << "cipher exponent " << c.exponent << " outside codec range";
  CipherWorkspace& ws = workspaces_[slot];
  // Same exponent by construction — never needs a scaling.
  if (ws.count > 0) ++stats_.hadds;
  backend_->Fold(&ws, c.data);
}

Cipher ReorderedCipherAccumulator::Finalize() {
  // Merge from highest exponent down so each workspace is scaled at most
  // once, directly to the final exponent, and folded into the highest.
  CipherWorkspace* top = nullptr;
  int top_exponent = 0;
  for (size_t i = workspaces_.size(); i-- > 0;) {
    CipherWorkspace& ws = workspaces_[i];
    if (ws.count == 0) continue;
    const int exponent = min_exponent_ + static_cast<int>(i);
    if (top == nullptr) {
      top = &ws;
      top_exponent = exponent;
      continue;
    }
    const Cipher scaled = backend_->ScaleTo(
        Cipher{backend_->Materialize(ws), exponent}, top_exponent);
    ++stats_.scalings;
    backend_->Fold(top, scaled.data);
    ++stats_.hadds;
  }
  if (top != nullptr) return Cipher{backend_->Materialize(*top), top_exponent};
  return backend_->EncryptPublicAt(0.0, backend_->codec().min_exponent());
}

Cipher SumCiphers(const std::vector<Cipher>& ciphers,
                  const CipherBackend& backend, bool reordered,
                  AccumulatorStats* stats) {
  std::unique_ptr<CipherAccumulator> acc;
  if (reordered) {
    acc = std::make_unique<ReorderedCipherAccumulator>(&backend);
  } else {
    acc = std::make_unique<NaiveCipherAccumulator>(&backend);
  }
  for (const Cipher& c : ciphers) acc->Add(c);
  Cipher out = acc->Finalize();
  if (stats != nullptr) *stats = acc->stats();
  return out;
}

}  // namespace vf2boost
