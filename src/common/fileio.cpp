#include "common/fileio.h"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <ostream>
#include <streambuf>

#include "common/error.h"

namespace chaser {

namespace {

/// The ostream side of a stdio FILE, unbuffered (the FILE buffers).
class FileStreamBuf : public std::streambuf {
 public:
  explicit FileStreamBuf(std::FILE* f) : f_(f) {}

 protected:
  int_type overflow(int_type c) override {
    if (traits_type::eq_int_type(c, traits_type::eof())) {
      return traits_type::not_eof(c);
    }
    return std::fputc(c, f_) == EOF ? traits_type::eof() : c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    return static_cast<std::streamsize>(
        std::fwrite(s, 1, static_cast<std::size_t>(n), f_));
  }

 private:
  std::FILE* f_;
};

}  // namespace

void WriteFileAtomic(const std::string& path,
                     const std::function<void(std::ostream&)>& write) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw ConfigError("WriteFileAtomic: cannot open '" + tmp + "' for writing");
  }
  try {
    {
      FileStreamBuf buf(f);
      std::ostream out(&buf);
      write(out);
      if (!out) {
        throw ConfigError("WriteFileAtomic: short write to '" + tmp + "'");
      }
    }
    // Flush user-space buffers, then force the bytes to disk before the
    // rename — otherwise a crash could publish an empty file under `path`.
    if (std::fflush(f) != 0 || ::fsync(::fileno(f)) != 0) {
      throw ConfigError("WriteFileAtomic: cannot flush '" + tmp + "'");
    }
    const int closed = std::fclose(f);
    f = nullptr;
    if (closed != 0) {
      throw ConfigError("WriteFileAtomic: close failed for '" + tmp + "'");
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
      throw ConfigError("WriteFileAtomic: cannot rename '" + tmp + "' to '" +
                        path + "': " + ec.message());
    }
  } catch (...) {
    if (f != nullptr) std::fclose(f);
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    throw;
  }
}

void WriteFileAtomic(const std::string& path, const std::string& content) {
  WriteFileAtomic(path, [&content](std::ostream& out) {
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
  });
}

std::string ReadFileToString(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw ConfigError("ReadFileToString: cannot open '" + path + "'");
  }
  std::string content;
  char buf[64 * 1024];
  for (;;) {
    const std::size_t n = std::fread(buf, 1, sizeof(buf), f);
    content.append(buf, n);
    if (n < sizeof(buf)) break;
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) {
    throw ConfigError("ReadFileToString: read failed for '" + path + "'");
  }
  return content;
}

}  // namespace chaser
