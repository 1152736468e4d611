// Fixture: the same engine-global touches are sanctioned inside a marked
// barrier region, where every shard thread is parked.

void commit(Sim& sim_) {
  // shard-barrier begin(window commit: outboxed effects are pushed while
  // all shard threads are parked on the pool's join)
  sim_.now_ += 1;
  sim_.metrics_.messages_sent += 1;
  // shard-barrier end
}
