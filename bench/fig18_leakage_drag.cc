/**
 * @file
 * Fig. 18: suppression performance of Rx(pi/2) pulses on the 5-level
 * transmon with leakage, with and without DRAG, for anharmonicities
 * of -200 / -300 / -400 MHz.
 */

#include "bench_common.h"

using namespace qzz;

namespace {

pulse::PulseProgram
withDrag(const pulse::PulseProgram &p, double alpha)
{
    auto pair = pulse::applyDrag(p.x_a, p.y_a, alpha);
    return pulse::PulseProgram::singleQubit(pair.x, pair.y);
}

} // namespace

int
main()
{
    bench::banner("Figure 18",
                  "Rx(pi/2) under ZZ crosstalk and leakage (5-level "
                  "transmon, DRAG)");
    const la::CMatrix target = la::expPauli(kPi / 4.0, 0.0, 0.0);
    const pulse::PulseProgram gauss =
        pulse::PulseLibrary::gaussian().get(pulse::PulseGate::SX);
    const pulse::PulseProgram pert =
        core::getPulseLibraryShared(core::PulseMethod::Pert)
            ->get(pulse::PulseGate::SX);
    const pulse::PulseProgram octl =
        core::getPulseLibraryShared(core::PulseMethod::OptCtrl)
            ->get(pulse::PulseGate::SX);
    const pulse::PulseProgram dcg =
        core::getPulseLibraryShared(core::PulseMethod::DCG)
            ->get(pulse::PulseGate::SX);

    for (double anh_mhz : {-200.0, -300.0, -400.0}) {
        const double alpha = mhz(anh_mhz);
        Table table({"lambda/2pi (MHz)", "Pert w/o DRAG",
                     "Gaussian w/ DRAG", "Pert w/ DRAG",
                     "OptCtrl w/ DRAG", "DCG w/ DRAG"});
        table.setTitle("anharmonicity " + formatF(anh_mhz, 0) +
                       " MHz");
        for (double l_mhz : {0.0, 0.5, 1.0, 1.5, 2.0}) {
            sim::TransmonConfig cfg;
            cfg.anharmonicity = alpha;
            cfg.lambda = mhz(l_mhz);
            auto cell = [&](const pulse::PulseProgram &p) {
                return bench::sci(bench::clampInfidelity(
                    sim::transmonCrosstalkInfidelity(p, target, cfg,
                                                     0.005)));
            };
            table.addRow({formatF(l_mhz, 2), cell(pert),
                          cell(withDrag(gauss, alpha)),
                          cell(withDrag(pert, alpha)),
                          cell(withDrag(octl, alpha)),
                          cell(withDrag(dcg, alpha))});
        }
        table.print(std::cout);
        std::cout << "\n";
    }
    std::cout << "Expected shape: Pert w/ DRAG suppresses both ZZ"
                 " (vs Gaussian w/ DRAG) and\nleakage (vs Pert w/o"
                 " DRAG) simultaneously.\n";
    return 0;
}
