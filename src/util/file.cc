#include "util/file.h"

#include <unistd.h>

#include <cstdio>
#include <filesystem>

namespace dpdp {

Status WriteFileAtomic(const std::string& path, std::string_view contents) {
  const std::filesystem::path target(path);
  if (target.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(target.parent_path(), ec);
    if (ec) {
      return Status::Internal("cannot create dir for " + path + ": " +
                              ec.message());
    }
  }
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot open " + tmp + " for writing");
  }
  bool ok = std::fwrite(contents.data(), 1, contents.size(), f) ==
            contents.size();
  ok = ok && std::fflush(f) == 0;
  ok = ok && ::fsync(::fileno(f)) == 0;
  if (std::fclose(f) != 0) ok = false;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::Internal("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

}  // namespace dpdp
