#include "src/netd/record_codec.h"

namespace netd {

namespace hd = hangdoctor;

bool ContainerToWireFrames(const std::string& container, std::vector<std::string>* frames,
                           std::string* error) {
  hd::SessionLogLayout layout;
  if (!hd::ScanMuxLog(container, &layout, error)) {
    return false;
  }
  frames->clear();
  frames->reserve(layout.record_offsets.size());
  for (size_t i = 0; i < layout.record_offsets.size(); ++i) {
    size_t begin = layout.record_offsets[i];
    size_t end =
        i + 1 < layout.record_offsets.size() ? layout.record_offsets[i + 1] : container.size();
    frames->push_back(container.substr(begin, end - begin));
  }
  return true;
}

}  // namespace netd
