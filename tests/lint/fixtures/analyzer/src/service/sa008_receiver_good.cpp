// SA008 good fixture: receiver names that only look like a class. Each
// mutex pair below is taken in one order only, so there is no cycle, as
// long as the lite frontend does not resolve a call to a method the
// receiver cannot have:
//   - `sessions_.push_back` is not the repo's only `push_back`
//     (Packer::push_back), because sessions_ is declared a vector;
//   - `words.size()` is not WordRing::size, because "word" is not a
//     trailing word of WordRing.
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace fixture {

struct Registry {
  std::mutex sessions_mu_;
  std::vector<int> sessions_;

  void add(int id) {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions_.push_back(id);
  }

  std::size_t size() {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    return sessions_.size();
  }
};

struct Packer {
  std::mutex packer_mu_;
  std::vector<std::uint64_t> packed_;

  void push_back(bool bit) {
    std::lock_guard<std::mutex> lock(packer_mu_);
    packed_.emplace_back(bit ? 1 : 0);
  }

  void flush(Registry& registry) {
    std::lock_guard<std::mutex> lock(packer_mu_);
    packed_.clear();
    (void)registry.size();
  }
};

struct Journal {
  std::mutex journal_mu_;
  std::vector<std::uint64_t> words_;

  std::size_t pending() {
    std::lock_guard<std::mutex> lock(journal_mu_);
    auto& words = words_;
    return words.size();
  }

  void note() { std::lock_guard<std::mutex> lock(journal_mu_); }
};

struct WordRing {
  std::mutex mu_;
  std::size_t count_ = 0;

  std::size_t size() {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }

  void report(Registry& registry, Journal& journal) {
    std::lock_guard<std::mutex> lock(mu_);
    count_ = registry.size();
    journal.note();
  }
};

}  // namespace fixture
