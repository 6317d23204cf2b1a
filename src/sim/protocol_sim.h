#ifndef VF2BOOST_SIM_PROTOCOL_SIM_H_
#define VF2BOOST_SIM_PROTOCOL_SIM_H_

#include <memory>

#include "sim/cost_model.h"
#include "sim/event_sim.h"

namespace vf2boost {

/// Shape of a simulated federated training workload.
struct SimWorkload {
  double instances = 1e6;      ///< N
  double features_a = 25000;   ///< D_A (total across A parties)
  double features_b = 25000;   ///< D_B
  double density = 0.002;      ///< nonzero fraction
  double bins = 20;            ///< s
  double layers = 7;           ///< L
  double workers = 8;          ///< workers per party
  double parties_a = 1;        ///< number of A parties

  double NnzPerInstanceB() const { return density * features_b; }
};

/// Which of the paper's optimizations the simulated protocol uses.
struct SimFlags {
  bool blaster = false;
  bool reordered = false;
  bool optimistic = false;
  bool packing = false;
  /// Batches the blaster splits the gradient stream into.
  size_t blaster_batches = 16;
};

/// Simulation outcome: makespan plus per-phase busy time (the Table 1
/// "Enc/Comm/HAdd" style breakdown) and the scheduled task graph for Gantt
/// rendering.
struct SimReport {
  double total_seconds = 0;
  double enc_seconds = 0;    ///< Party B encryption busy time
  double comm_seconds = 0;   ///< WAN busy time
  double hadd_seconds = 0;   ///< Party A histogram busy time
  double dec_seconds = 0;    ///< Party B decryption busy time
  std::shared_ptr<EventSim> sim;  ///< scheduled graph (resources 0=B,1=WAN,2=A)
};

/// Simulates processing of the ROOT node only: gradient encryption, cipher
/// transfer, and BuildHistA (paper Table 1 / Figure 4).
SimReport SimulateRootNode(const SimWorkload& w, const SimFlags& flags,
                           const CostModel& cost);

/// Simulates one full decision tree (paper Table 2 / Figure 5 / Tables 5-6).
SimReport SimulateTree(const SimWorkload& w, const SimFlags& flags,
                       const CostModel& cost);

}  // namespace vf2boost

#endif  // VF2BOOST_SIM_PROTOCOL_SIM_H_
