// The test process's resident memory, for tests of what memory costs.
#pragma once

#include <unistd.h>

#include <cstddef>
#include <fstream>

// Bytes resident now, as /proc/self/statm counts them.
inline std::size_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t total_pages = 0;
  std::size_t resident_pages = 0;
  statm >> total_pages >> resident_pages;
  return resident_pages * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}
