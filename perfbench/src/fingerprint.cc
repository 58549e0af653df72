#include "fingerprint.h"

#include <sys/vfs.h>

#include <cstdio>
#include <thread>

#include "telemetry/json.h"
#include "telemetry/runtime.h"
#include "tensor/simd/simd.h"

namespace perfbench {
namespace {

// Filesystem type name of `path` ("ext4", "tmpfs", ... or the hex magic).
std::string FilesystemType(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53UL: return "ext4";  // ext2/3/4 share the magic
    case 0x01021994UL: return "tmpfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x6969UL: return "nfs";
    case 0x2FC12FC1UL: return "zfs";
    default: break;
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%lx",
                static_cast<unsigned long>(info.f_type));
  return hex;
}

}  // namespace

std::string HostFingerprintJson(const std::string& checkpoint_dir) {
  namespace json = digfl::telemetry::json;
  std::string out = "{";
  out += "\"simd\":\"" +
         json::Escape(digfl::simd::TierName(digfl::simd::ActiveTier())) + "\"";
  out += ",\"hw_threads\":" +
         std::to_string(std::thread::hardware_concurrency());
  out += ",\"build_type\":\"" + json::Escape(PERFBENCH_BUILD_TYPE) + "\"";
  out += ",\"compiler\":\"" + json::Escape(PERFBENCH_COMPILER) + "\"";
  out += std::string(",\"telemetry_compiled\":") +
         (DIGFL_TELEMETRY_ENABLED ? "true" : "false");
  out += ",\"checkpoint_fs\":\"" + json::Escape(FilesystemType(checkpoint_dir)) +
         "\"";
  out += "}";
  return out;
}

}  // namespace perfbench
