// topo may depend on sim (the public engine surface) but not on the
// nested sim/core module: engine queue internals are private to sim.
#include "sim/core/timer_wheel.h"
#include "sim/engine.h"

namespace p2plb::topo {

int peek_wheel() { return 0; }

}  // namespace p2plb::topo
