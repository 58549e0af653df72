// Host fingerprint printed with every benchmark result, so a number is never
// read without the machine and build that produced it.

#ifndef PERFBENCH_FINGERPRINT_H_
#define PERFBENCH_FINGERPRINT_H_

#include <string>

namespace perfbench {

// One JSON object: active SIMD tier, hardware threads, build type,
// compiler, whether telemetry is compiled in, and the filesystem type of
// `checkpoint_dir` (fsync cost differs between e.g. ext4 and tmpfs).
std::string HostFingerprintJson(const std::string& checkpoint_dir);

}  // namespace perfbench

#endif  // PERFBENCH_FINGERPRINT_H_
