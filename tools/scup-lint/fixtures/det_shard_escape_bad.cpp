// Fixture: det-shard-escape must fire on raw thread primitives in src/sim/
// outside sim/shard_pool, and on engine-global simulation state touched
// outside a shard-barrier region in sim/shard* files.
#include <thread>

void escape_thread() {
  std::thread t([] {});
  t.detach();
}

void escape_globals(Sim& sim_) {
  sim_.now_ += 1;
  sim_.metrics_.messages_sent += 1;
}
