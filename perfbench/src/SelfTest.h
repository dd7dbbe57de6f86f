//===- perfbench/src/SelfTest.h - Planted-fault self-test ------*- C++ -*-===//
///
/// \file
/// Shows that every output check can fail: each check is given a real
/// output of the program, which it must accept, and a copy with one
/// planted fault (a count +1, a checksum bit flipped, a path dropped, a
/// merge skipped), which it must reject.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SELFTEST_H
#define PERFBENCH_SELFTEST_H

namespace perfbench {

/// Runs the self-test; prints one line per check. Returns 0 when every
/// check accepted the real output and rejected the planted fault.
int runSelfTest();

} // namespace perfbench

#endif // PERFBENCH_SELFTEST_H
