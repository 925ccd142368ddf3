/**
 * @file
 * Umbrella header: the full qzz public API.
 *
 * Fine-grained headers remain available (e.g. "core/suppression.h")
 * for faster builds; this header is a convenience for examples and
 * downstream applications.
 *
 * @section compile Compiling a circuit
 *
 * Compilation runs four fixed stages — route, lower, schedule,
 * attach pulses (core/compiler.h):
 *
 * @code
 *   core::Compiler compiler = core::CompilerBuilder(device)
 *                                 .pulseMethod(core::PulseMethod::Pert)
 *                                 .schedPolicy(core::SchedPolicy::Zzx)
 *                                 .build();
 *   core::CompileResult result = compiler.compile(circuit);   // or
 *   core::BatchResult batch = compiler.compileBatch(circuits);
 * @endcode
 *
 *  - errors arrive on result.status (a structured channel);
 *    core::unwrapOrThrow(result) turns a failure into
 *    UserError/InternalError for callers that want an exception;
 *  - result.diagnostics carries per-stage wall times and NC/NQ stats;
 *  - the scheduling policy is a value (core::SchedPolicy): the schedule
 *    stage calls core::schedule() (core/sched_walk.h), the one switch
 *    over policies, which also schedules a native circuit directly;
 *  - the pulse method is a value too (core::PulseMethod);
 *    CompilerBuilder::pulseLibrary() injects another library, and
 *    CompiledProgram owns its pulse library via shared_ptr;
 *  - compileBatch() compiles many circuits across a thread pool while
 *    sharing routing tables, cut tables and pulse libraries.
 */

#ifndef QZZ_QZZ_H
#define QZZ_QZZ_H

#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/table.h"
#include "common/units.h"

#include "linalg/expm.h"
#include "linalg/fidelity.h"
#include "linalg/matrix.h"

#include "ode/propagator.h"

#include "graph/graph.h"
#include "graph/matching.h"
#include "graph/planar.h"
#include "graph/shortest_paths.h"
#include "graph/topologies.h"

#include "pulse/drag.h"
#include "pulse/library.h"
#include "pulse/program.h"
#include "pulse/waveform.h"

#include "device/calibration.h"
#include "device/device.h"

#include "circuit/benchmarks.h"
#include "circuit/circuit.h"
#include "circuit/dag.h"
#include "circuit/decompose.h"
#include "circuit/gate.h"
#include "circuit/router.h"

#include "core/compiler.h"
#include "core/cut.h"
#include "core/dcg.h"
#include "core/exact_sched.h"
#include "core/framework.h"
#include "core/objectives.h"
#include "core/optimizer.h"
#include "core/par_sched.h"
#include "core/pulse_opt.h"
#include "core/regions.h"
#include "core/sched_walk.h"
#include "core/schedule.h"
#include "core/schedule_io.h"
#include "core/suppression.h"
#include "core/zzx_sched.h"

#include "service/artifact.h"
#include "service/artifact_gc.h"
#include "service/calibration_hub.h"
#include "service/compile_service.h"
#include "service/fingerprint.h"
#include "service/jsonl.h"
#include "service/program_cache.h"
#include "service/server.h"
#include "service/transport.h"

#include "sim/density_matrix.h"
#include "sim/fitting.h"
#include "sim/ideal_sim.h"
#include "sim/lindblad.h"
#include "sim/pulse_sim.h"
#include "sim/ramsey.h"
#include "sim/state_vector.h"
#include "sim/transmon.h"

#include "exp/pipeline.h"
#include "exp/suite.h"

#endif // QZZ_QZZ_H
