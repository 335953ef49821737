#include "pricing/acceptance_model.h"

#include <limits>

namespace comx {

std::vector<double> DrawWorkerReservations(const Instance& instance,
                                           uint64_t seed) {
  Rng rng(seed);
  std::vector<double> rho;
  rho.reserve(instance.workers().size());
  for (const Worker& w : instance.workers()) {
    if (w.history.empty()) {
      rho.push_back(std::numeric_limits<double>::infinity());
    } else {
      rho.push_back(w.history[rng.PickIndex(w.history.size())]);
    }
  }
  return rho;
}

AcceptanceModel::AcceptanceModel(const Instance& instance, AcceptanceMode mode,
                                 uint64_t reservation_seed)
    : mode_(mode) {
  size_t total_values = 0;
  for (const Worker& w : instance.workers()) total_values += w.history.size();
  ecdf_.Reserve(instance.workers().size(), total_values);
  for (const Worker& w : instance.workers()) ecdf_.AddWorker(w.history);
  if (mode_ == AcceptanceMode::kReservation) {
    reservations_ = DrawWorkerReservations(instance, reservation_seed);
  }
}

double AcceptanceModel::AcceptProbability(WorkerId w, double payment) const {
  return ecdf_.Evaluate(w, payment);
}

double AcceptanceModel::GroupAcceptProbability(
    const std::vector<WorkerId>& workers, double payment) const {
  double none = 1.0;
  for (WorkerId w : workers) {
    none *= 1.0 - ecdf_.Evaluate(w, payment);
    if (none == 0.0) return 1.0;
  }
  return 1.0 - none;
}

bool AcceptanceModel::DrawAcceptance(WorkerId w, double payment,
                                     Rng* rng) const {
  return rng->Bernoulli(AcceptProbability(w, payment));
}

bool AcceptanceModel::Accepts(WorkerId w, double payment, Rng* rng) const {
  if (mode_ == AcceptanceMode::kReservation) {
    return payment >= reservations_[static_cast<size_t>(w)];
  }
  return DrawAcceptance(w, payment, rng);
}

}  // namespace comx
