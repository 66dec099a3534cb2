#ifndef DPDP_UTIL_FILE_H_
#define DPDP_UTIL_FILE_H_

#include <string>
#include <string_view>

#include "util/status.h"

namespace dpdp {

/// Writes `contents` to `path` so that a reader, or a crash, never sees a
/// torn file: creates the parent directory, writes `<path>.tmp`, flushes
/// and fsyncs it, then renames it over `path`. On failure the temp file
/// is removed and `path` keeps its previous contents. The one staged
/// writer behind training checkpoints and every obs export.
Status WriteFileAtomic(const std::string& path, std::string_view contents);

}  // namespace dpdp

#endif  // DPDP_UTIL_FILE_H_
