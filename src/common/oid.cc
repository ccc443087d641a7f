#include "common/oid.h"

namespace asr {

std::string Oid::ToString() const {
  if (IsNull()) return "NULL";
  // Appended piecewise: GCC 12 at -O3 reports a false -Wrestrict on
  // `"literal" + std::string` chains.
  std::string out = "t";
  out.append(std::to_string(type_id())).append(".s");
  return out.append(std::to_string(seq()));
}

}  // namespace asr
